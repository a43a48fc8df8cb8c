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

// writeEpilogue resets an epilogue to its unchained state.
func writeEpilogue(phys vx64.PhysMem, pa uint64) {
	tr := vx64.Inst{Op: vx64.TRAP, Imm: dispatchTrapVec}
	buf := vx64.Encode(nil, &tr)
	for len(buf) < epilogueSize {
		buf = append(buf, byte(vx64.NOP))
	}
	copy(phys[pa:], buf)
}

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
	var buf []byte
	mov := vx64.Inst{Op: vx64.MOVI64, Rd: uint16(vx64.RTMP), Imm: int64(pc)}
	buf = vx64.Encode(buf, &mov)
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
	copy(c.phys[off:], buf)
	// Re-install the terminal TRAP after the new slot.
	next := off + chainSlotSize
	tr := vx64.Inst{Op: vx64.TRAP, Imm: dispatchTrapVec}
	tb := vx64.Encode(nil, &tr)
	copy(c.phys[next:], tb)
	c.invalidateCode(b.epiPA, epilogueSize)

	b.slots = append(b.slots, pc)
	to.incoming = append(to.incoming, b)
	c.chained = append(c.chained, b)
	return true
}

// unchain removes every slot of b's exit.
func (c *codeCache) unchain(b *Block) {
	if len(b.slots) == 0 {
		return
	}
	writeEpilogue(c.phys, b.epiPA)
	c.invalidateCode(b.epiPA, epilogueSize)
	b.slots = nil
}
