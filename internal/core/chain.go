package core

import (
	"captive/internal/hvm"
	"captive/internal/vx64"
)

// Block chaining (§2.6): block exits are TRAP-to-dispatcher epilogues that
// get progressively patched with PC-compare chains — the generalization of
// direct-jump chaining that also covers conditional branches:
//
//	movi64 r12, <target-pc>
//	cmp    r15, r12
//	jne    +5
//	jmp    <target block entry>
//	... second slot ...
//	trap   #1            ; miss: back to the dispatcher
//
// Each block's exit holds up to two chain slots (taken/fall-through of a
// conditional branch). A hit costs a handful of deci-cycles instead of a
// dispatcher round trip; guest TLB flushes and SMC invalidations unpatch by
// restoring the TRAP at the epilogue head.

// chainSlotSize is the encoded size of one chain slot:
// MOVI64 (10) + CMPrr (3) + JCC (6) + JMP (5).
const chainSlotSize = 24

// maxChainSlots bounds the slots per block exit.
const maxChainSlots = 2

// epilogueSize reserves room for two slots plus the terminal TRAP (2 bytes)
// and padding.
const epilogueSize = maxChainSlots*chainSlotSize + 4

// dispatchTrapVec is the TRAP vector meaning "return to dispatcher".
const dispatchTrapVec = 1

// dispatchTrapSize is the encoded size of the dispatcher TRAP.
const dispatchTrapSize = 2

// epilogueLIR is what an epilogue counts as in the JIT's charge and
// statistics: the TRAP and its NOP padding, one LIR instruction each, as
// the pipeline once emitted them. translateBlock appends the bytes instead,
// so the cycle model prices the same output it always has.
const epilogueLIR = 1 + epilogueSize - dispatchTrapSize

// unchainedEpilogue is an exit epilogue with no chain slot: the dispatcher
// TRAP, then NOP padding to epilogueSize. translateBlock appends it to every
// block, and unchain restores it.
var unchainedEpilogue = func() (epi [epilogueSize]byte) {
	tr := vx64.Inst{Op: vx64.TRAP, Imm: dispatchTrapVec}
	if len(vx64.Encode(epi[:0], &tr)) != dispatchTrapSize {
		panic("core: dispatcher TRAP size drifted")
	}
	for i := dispatchTrapSize; i < epilogueSize; i++ {
		epi[i] = byte(vx64.NOP)
	}
	return epi
}()

// chain installs a chain slot in b's exit for target pc -> to. It reports
// whether a new slot was installed.
func (c *codeCache) chain(b, to *Block, pc uint64) bool {
	if len(b.slots) >= maxChainSlots || !to.Valid || !b.Valid {
		return false
	}
	for _, target := range b.slots {
		if target == pc {
			return false
		}
	}
	off := b.epiPA + uint64(len(b.slots))*chainSlotSize
	// The slot, then the terminal TRAP re-installed after it.
	var patch [chainSlotSize + dispatchTrapSize]byte
	mov := vx64.Inst{Op: vx64.MOVI64, Rd: uint16(vx64.RTMP), Imm: int64(pc)}
	buf := vx64.Encode(patch[:0], &mov)
	cmp := vx64.Inst{Op: vx64.CMPrr, Rd: uint16(vx64.RPC), Rs: uint16(vx64.RTMP)}
	buf = vx64.Encode(buf, &cmp)
	jne := vx64.Inst{Op: vx64.JCC, Cond: vx64.CondNE, Imm: 5}
	buf = vx64.Encode(buf, &jne)
	jmpEnd := hvm.DirectVA(off) + uint64(len(buf)) + 5
	jmp := vx64.Inst{Op: vx64.JMP, Imm: int64(to.Entry) - int64(jmpEnd)}
	buf = vx64.Encode(buf, &jmp)
	if len(buf) != chainSlotSize {
		panic("core: chain slot size drifted")
	}
	buf = append(buf, unchainedEpilogue[:dispatchTrapSize]...)
	copy(c.phys[off:], buf)
	c.invalidateCode(b.epiPA, epilogueSize)

	b.slots = append(b.slots, pc)
	to.incoming = append(to.incoming, b)
	c.chained = append(c.chained, chainLink{b, to})
	return true
}

// unchain removes every slot of b's exit.
func (c *codeCache) unchain(b *Block) {
	if len(b.slots) == 0 {
		return
	}
	copy(c.phys[b.epiPA:], unchainedEpilogue[:])
	c.invalidateCode(b.epiPA, epilogueSize)
	b.slots = nil
}
