package core

import (
	"captive/internal/adl"
	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/hvm"
	"captive/internal/trace"
	"captive/internal/vx64"
)

// The QEMU-style baseline engine (§3's comparison system). It shares the
// translation machinery but makes QEMU's architectural choices:
//
//   - Guest memory accesses go through an inline software TLB (softmmu):
//     index, tag compare, addend add — with a helper-call slow path that
//     walks the guest page tables in software (§2.7.2, Fig. 14).
//   - Floating point is implemented with helper calls into a software
//     float library (§2.5's contrast).
//   - The translation cache is indexed by guest *virtual* address and is
//     flushed completely whenever the guest changes its page tables or
//     flushes its TLB (§2.6's contrast).
//   - The JIT is cheaper per block (§3.4: Captive is ~2.6× slower per
//     translated block).
//
// Differences from a literal QEMU port are documented in DESIGN.md §1: the
// frontend is generated from the same ADL model rather than hand-written,
// because the paper's evaluation isolates the architectural choices above,
// not frontend engineering.

// BackendKind selects the engine personality.
type BackendKind uint8

// Backend kinds.
const (
	BackendCaptive BackendKind = iota
	BackendQEMU
)

// QEMU-specific cost constants (deci-cycles).
const (
	costQJITBase     = 1100 // per-block translation (cheaper than Captive's)
	costQJITPerLIR   = 35
	costSoftTLBFill  = 700 // software walk + entry fill in the slow path
	costSoftTLBFlush = 900 // memset of the softmmu TLB
)

// Softmmu TLB geometry: 256 entries of 32 bytes in the (repurposed) page
// table pool region, reached R13-relative from generated code.
const (
	softTLBBits   = 8
	softTLBSize   = 1 << softTLBBits
	softTLBStride = 32
	softTLBTagR   = 0  // entry offset: read tag (vaPage<<12 or ^0)
	softTLBTagW   = 8  // write tag
	softTLBAddend = 16 // hostVA - guestVA for the page
)

// NewQEMU creates the QEMU-style baseline engine in a host VM for the guest
// architecture described by g.
func NewQEMU(vm *hvm.VM, g port.Port, module *gen.Module) (*Engine, error) {
	return newUP(vm, g, module, BackendQEMU)
}

// softTLBEntryPA returns the physical address of this vCPU's entry i.
func (e *Engine) softTLBEntryPA(i int) uint64 {
	return e.statePA + uint64(e.softTLBOff) + uint64(i)*softTLBStride
}

// flushSoftTLB invalidates every softmmu entry.
func (e *Engine) flushSoftTLB() {
	for i := 0; i < softTLBSize; i++ {
		pa := e.softTLBEntryPA(i)
		e.vm.Phys.W64(pa+softTLBTagR, ^uint64(0))
		e.vm.Phys.W64(pa+softTLBTagW, ^uint64(0))
	}
}

// emitSoftMMU generates the inline softmmu sequence for one access and
// returns the destination vreg for loads. Layout mirrors QEMU's fast path:
//
//	t = (addr >> 12) & 255; t <<= 5
//	tag = [R13 + softTLB + t + (0|8)]
//	if tag != (addr & ~0xFFF) -> slow (helper walks, fills, performs access)
//	addend = [R13 + softTLB + t + 16]
//	access [addr + addend]
func (e *Emitter) emitSoftMMU(width uint8, addr gen.Val, write bool, storeVal gen.Val) uint16 {
	a := e.matG(addr)
	// The store value must be materialized before the hit/miss branch:
	// both the fast path and the slow path consume it, and a vreg defined
	// only inside the (skipped) fast path would be garbage in the slow one.
	var sv uint16
	if write {
		sv = e.matG(storeVal)
	}
	idx := e.newG()
	e.emitPure(vx64.Inst{Op: vx64.MOVrr, Rd: idx, Rs: a})
	e.emitPure(vx64.Inst{Op: vx64.SHRri, Rd: idx, Imm: 12})
	e.emitPure(vx64.Inst{Op: vx64.ANDri, Rd: idx, Imm: softTLBSize - 1})
	e.emitPure(vx64.Inst{Op: vx64.SHLri, Rd: idx, Imm: 5})

	tagOff := int32(softTLBTagR)
	if write {
		tagOff = softTLBTagW
	}
	tag := e.newG()
	e.emit(vx64.Inst{Op: vx64.LOAD64, Rd: tag,
		M:       vx64.Mem{Base: vx64.RSTA, Disp: e.eng.softTLBOff + tagOff, Scale: 1, Index: vx64.Reg(0)},
		MIndexV: idx})
	page := e.newG()
	e.emitPure(vx64.Inst{Op: vx64.MOVrr, Rd: page, Rs: a})
	// The mask keeps the low alignment bits alive: a misaligned access (any
	// bit of width-1 set) can never equal the page-aligned tag and always
	// takes the slow path, which handles page-crossing correctly. The fast
	// path would apply the first page's addend to bytes that belong to the
	// next page.
	e.emitPure(vx64.Inst{Op: vx64.ANDri, Rd: page, Imm: -4096 | int64(width-1)})
	e.emit(vx64.Inst{Op: vx64.CMPrr, Rd: tag, Rs: page})

	dst := e.newG()
	cold := e.coldBlock()
	e.emitBr(vx64.Inst{Op: vx64.JCC, Cond: vx64.CondNE}, cold.id)
	// Fast path: hit.
	addend := e.newG()
	e.emit(vx64.Inst{Op: vx64.LOAD64, Rd: addend,
		M:       vx64.Mem{Base: vx64.RSTA, Disp: e.eng.softTLBOff + softTLBAddend, Scale: 1, Index: vx64.Reg(0)},
		MIndexV: idx})
	e.emitPure(vx64.Inst{Op: vx64.ADDrr, Rd: addend, Rs: a})
	if write {
		e.emit(vx64.Inst{Op: vx64.MemOp(vx64.Store, width, false), Rs: sv,
			M: vx64.Mem{Disp: 0, Scale: 1, Index: vx64.NoReg}, MBaseV: addend})
	} else {
		e.emit(vx64.Inst{Op: vx64.MemOp(vx64.Load, width, false), Rd: dst,
			M: vx64.Mem{Disp: 0, Scale: 1, Index: vx64.NoReg}, MBaseV: addend})
	}
	join := e.splitHere()
	e.inBlock(cold, func() {
		e.spillArgReg(hvm.StateArg0, a)
		if write {
			e.spillArgReg(hvm.StateArg1, sv)
		}
		ctl := uint64(width)
		if write {
			ctl |= 1 << 8
		}
		e.spillArgImm(hvm.StateArg2, ctl)
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hQemuFill)})
		if !write {
			e.emit(vx64.Inst{Op: vx64.LOAD64, Rd: dst,
				M: vx64.Mem{Base: vx64.RSTA, Index: vx64.NoReg, Scale: 1, Disp: hvm.StateRet}})
		}
		e.emitBr(vx64.Inst{Op: vx64.JMP}, join.id)
	})
	return dst
}

// qemuFill is the softmmu slow path: software guest page-table walk, TLB
// fill, and the access itself (devices included). Guest faults become guest
// exceptions.
func (e *Engine) qemuFill(c *vx64.CPU) vx64.HelperAction {
	va := e.stateSlot(hvm.StateArg0)
	val := e.stateSlot(hvm.StateArg1)
	ctl := e.stateSlot(hvm.StateArg2)
	width := uint8(ctl & 0xFF)
	write := ctl&(1<<8) != 0
	guestPC := c.R[vx64.RPC]

	c.Stats.Cycles += costSoftTLBFill
	a := e.walked(e.Space.Data(va, width, write, guestPC))
	gpa := a.Walk.PA
	switch {
	case a.Abort:
		e.raise(a.Exc)
		return vx64.HelperExit
	case a.Device:
		if write {
			e.Device(gpa, width, true, val, guestPC)
			// A device write may have armed, silenced or re-aimed the
			// timer: recompute the block-entry injection deadline.
			e.refreshIRQ()
		} else {
			e.setRet(e.Device(gpa, width, false, 0, guestPC))
		}
		return vx64.HelperContinue
	}
	if write {
		e.vm.RAM.Write(gpa, width, val)
		// Self-modifying code: a store into a page with translations
		// flushes them (QEMU-style dirty tracking). The store went
		// contiguously from gpa, so a page-crossing write dirties the
		// *last* byte's physical page too — checking only the first page
		// would let stale translations of the next page keep running.
		endPage := (gpa + uint64(width) - 1) >> 12
		for page := gpa >> 12; page <= endPage; page++ {
			if e.cache.pageHasCode(page) {
				e.Record(trace.SMCInval, 0, guestPC, page<<12)
				e.stats.SMCInvals++
				e.cache.invalidatePage(page)
			}
		}
	} else {
		v, _ := e.vm.RAM.Read(gpa, width)
		e.setRet(v)
	}
	// Fill the TLB entry.
	vaPage := va &^ uint64(0xFFF)
	gpaPage := gpa &^ uint64(0xFFF)
	idx := int(va >> 12 & (softTLBSize - 1))
	pa := e.softTLBEntryPA(idx)
	e.vm.Phys.W64(pa+softTLBTagR, vaPage)
	if a.Walk.Write {
		e.vm.Phys.W64(pa+softTLBTagW, vaPage)
	} else {
		e.vm.Phys.W64(pa+softTLBTagW, ^uint64(0))
	}
	e.vm.Phys.W64(pa+softTLBAddend, hvm.DirectVA(gpaPage)-vaPage)
	return vx64.HelperContinue
}

// memReadQEMU/memWriteQEMU are the baseline's gen.Emitter memory hooks.
func (e *Emitter) memReadQEMU(width uint8, ty adl.TypeName, addr gen.Val) gen.Val {
	dst := e.emitSoftMMU(width, addr, false, gen.NoVal)
	// Both paths produce a zero-extended value; sign-extend when needed.
	if ty.Signed() {
		e.canon(dst, ty)
	}
	return e.newNode(node{kind: nGPR, ty: ty, gpr: dst})
}

func (e *Emitter) memWriteQEMU(width uint8, addr, val gen.Val) {
	e.emitSoftMMU(width, addr, true, val)
}
