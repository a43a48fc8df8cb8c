package core

import "captive/internal/hvm"

// TranslateAt runs the online pipeline for the guest block at physical
// address pc (guest translation off, so pc is also its key) and installs it
// in the code cache. It returns the installed code, which the next
// translation or flush may overwrite.
func (e *Engine) TranslateAt(pc uint64) ([]byte, error) {
	blk, err := e.translateBlock(pc, pc, 0)
	if err != nil {
		return nil, err
	}
	pa := blk.Entry - hvm.DirectBase
	return e.vm.Phys[pa : pa+uint64(len(e.enc.code))], nil
}

// FlushTranslations empties the code cache, as a full cache does.
func (e *Engine) FlushTranslations() { e.flushTranslations() }
