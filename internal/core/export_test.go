package core

import (
	"slices"

	"captive/internal/hvm"
)

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

// A block's dispatch TRAP sits after 0 to MaxChainSlots chain slots of
// ChainSlotSize bytes each.
const ChainSlotSize, MaxChainSlots = chainSlotSize, maxChainSlots

// ExitAt returns the block whose dispatch TRAP exit resolution finds at
// host-physical pa, or nil.
func (e *Engine) ExitAt(pa uint64) *Block { return e.cache.exitAt(pa) }

// Installed returns the blocks installed since the last flush, in install
// order.
func (e *Engine) Installed() []*Block { return slices.Clone(e.cache.installed) }

// EpiloguePA returns the host-physical address of the block's exit
// epilogue, where its dispatch TRAP sits while no chain slot is installed.
func (b *Block) EpiloguePA() uint64 { return b.epiPA }

// ChainRecords returns the incoming-chain entries summed over the installed
// blocks, and the chain slots installed in their exits.
func (e *Engine) ChainRecords() (incoming, slots int) {
	for _, b := range e.cache.installed {
		incoming += len(b.incoming)
		slots += len(b.slots)
	}
	return incoming, slots
}

// UnchainedEpilogue is a block's exit epilogue while no chain slot is
// installed.
var UnchainedEpilogue = unchainedEpilogue[:]
