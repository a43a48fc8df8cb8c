package core

import (
	"fmt"

	"captive/internal/adl"
	"captive/internal/gen"
	"captive/internal/hvm"
	"captive/internal/softfloat"
	"captive/internal/ssa"
	"captive/internal/vx64"
)

// Dedicated physical registers for the §2.7.5 fast path. The dispatcher
// initializes them and the switch-space helper maintains R9:
//
//	R9  = current address-space half as a sign mask (0 = low, ~0 = high)
//	R10 = 0x00007FFFFFFFFFFF, the low-half address mask
const (
	regModeMask = uint16(vx64.R9)
	regLowMask  = uint16(vx64.R10)
)

// emitGuestAddr lowers a guest virtual address to a host virtual address:
// the sign of the address is compared with the current mapping half; on
// mismatch an out-of-line helper switches CR3 to the other root (a
// PCID-tagged, no-flush switch) and flips R9; the address is then masked
// into the low half, where the host MMU maps guest pages on demand (§2.7.3,
// §2.7.5). Fast path: 5 instructions.
func (e *Emitter) emitGuestAddr(addr gen.Val) uint16 {
	a := e.matG(addr)
	t := e.newG()
	e.emitPure(vx64.Inst{Op: vx64.MOVrr, Rd: t, Rs: a})
	m := e.newG()
	e.emitPure(vx64.Inst{Op: vx64.MOVrr, Rd: m, Rs: a})
	e.emitPure(vx64.Inst{Op: vx64.SARri, Rd: m, Imm: 63})
	e.emit(vx64.Inst{Op: vx64.CMPrr, Rd: m, Rs: regModeMask})

	cold := e.coldBlock()
	e.emitBr(vx64.Inst{Op: vx64.JCC, Cond: vx64.CondNE}, cold.id)
	join := e.splitHere()
	e.inBlock(cold, func() {
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hSwitchSpace)})
		e.emitBr(vx64.Inst{Op: vx64.JMP}, join.id)
	})
	e.emit(vx64.Inst{Op: vx64.ANDrr, Rd: t, Rs: regLowMask})
	return t
}

// MemRead implements gen.Emitter: a guest load becomes (at most) the address
// check plus one host load — the host MMU performs the guest translation.
// Loads are emitted eagerly: they can fault, so they must stay ordered with
// respect to stores and must never be dead-code-eliminated.
func (e *Emitter) MemRead(width uint8, ty adl.TypeName, addr gen.Val) gen.Val {
	if e.eng.Kind == BackendQEMU {
		return e.memReadQEMU(width, ty, addr)
	}
	ha := e.emitGuestAddr(addr)
	d := e.newG()
	op := vx64.MemOp(vx64.Load, width, false)
	if ty.Signed() {
		op = loadOpFor(ty)
	}
	e.emit(vx64.Inst{Op: op, Rd: d, M: vx64.Mem{Disp: 0, Scale: 1, Index: vx64.NoReg}, MBaseV: ha})
	return e.newNode(node{kind: nGPR, ty: ty, gpr: d})
}

// MemWrite implements gen.Emitter.
func (e *Emitter) MemWrite(width uint8, addr, val gen.Val) {
	if e.eng.Kind == BackendQEMU {
		e.memWriteQEMU(width, addr, val)
		return
	}
	op := vx64.MemOp(vx64.Store, width, false)
	ha := e.emitGuestAddr(addr)
	g := e.matG(val)
	e.emit(vx64.Inst{Op: op, Rs: g, M: vx64.Mem{Disp: 0, Scale: 1, Index: vx64.NoReg}, MBaseV: ha})
}

// --- helper calls ------------------------------------------------------------

// Helper identifiers (HELPER immediates) provided by the engine.
const (
	hSwitchSpace = iota + 1
	hSysRead
	hSysWrite
	hSVC
	hBRK
	hERet
	hTLBI
	hHlt
	hWFI
	hFPFixup  // arg0=op, arg1=a, arg2=b -> ret (ARM-accurate recompute)
	hFPSoft   // soft-float ablation: arg0=op, arg1=a, arg2=b -> ret
	hFCvtZS   // ARM-accurate f64->s64
	hFMinMax  // arg0: 0=min 1=max
	hUndef    // undefined-instruction exception at the current guest PC
	hQemuFill // baseline softmmu slow path: walk, fill, access
	helperCount
)

// spillArg stores a value into a state-page argument slot.
func (e *Emitter) spillArg(slot int32, v gen.Val) {
	g := e.matG(v)
	e.emit(vx64.Inst{Op: vx64.STORE64, Rs: g,
		M: vx64.Mem{Base: vx64.RSTA, Index: vx64.NoReg, Scale: 1, Disp: slot}})
}

func (e *Emitter) spillArgReg(slot int32, g uint16) {
	e.emit(vx64.Inst{Op: vx64.STORE64, Rs: g,
		M: vx64.Mem{Base: vx64.RSTA, Index: vx64.NoReg, Scale: 1, Disp: slot}})
}

func (e *Emitter) spillArgImm(slot int32, v uint64) {
	g := e.newG()
	e.emitPure(movImm(g, v))
	e.spillArgReg(slot, g)
}

// loadRet loads the helper result slot into a fresh vreg.
func (e *Emitter) loadRet() uint16 {
	d := e.newG()
	e.emit(vx64.Inst{Op: vx64.LOAD64, Rd: d,
		M: vx64.Mem{Base: vx64.RSTA, Index: vx64.NoReg, Scale: 1, Disp: hvm.StateRet}})
	return d
}

// Intrinsic implements gen.Emitter. Floating point lowers to host FP
// instructions with inline bit-accuracy fix-ups (§2.5) — or to helper calls
// in the soft-float ablation mode (§3.6.2). System behaviours lower to
// helper calls into the engine runtime.
func (e *Emitter) Intrinsic(intr *ssa.Intrinsic, args []gen.Val) gen.Val {
	switch intr.ID {
	case ssa.IntrFAdd64, ssa.IntrFSub64, ssa.IntrFMul64, ssa.IntrFDiv64:
		if e.eng.SoftFP {
			return e.softFPBinary(intr.ID, args[0], args[1])
		}
		return e.hardFPBinary(intr.ID, args[0], args[1])
	case ssa.IntrFSqrt64:
		if e.eng.SoftFP {
			return e.softFPBinary(intr.ID, args[0], args[0])
		}
		return e.hardFPSqrt(args[0])
	case ssa.IntrFMin64, ssa.IntrFMax64:
		// ARM FMIN/FMAX semantics diverge from host MINSD/MAXSD beyond
		// NaNs (signed-zero ordering), so these always take the helper.
		sel := uint64(0)
		if intr.ID == ssa.IntrFMax64 {
			sel = 1
		}
		e.spillArgImm(hvm.StateArg0, sel)
		e.spillArg(hvm.StateArg1, args[0])
		e.spillArg(hvm.StateArg2, args[1])
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hFMinMax)})
		return e.newNode(node{kind: nGPR, ty: adl.TypeU64, gpr: e.loadRet()})
	case ssa.IntrFNeg64:
		x := e.matF(args[0])
		d := e.newF()
		e.emitPure(vx64.Inst{Op: vx64.FNEG, Rd: d, Rs: x})
		return e.newNode(node{kind: nFPR, ty: adl.TypeU64, fpr: d})
	case ssa.IntrFAbs64:
		x := e.matF(args[0])
		d := e.newF()
		e.emitPure(vx64.Inst{Op: vx64.FABS, Rd: d, Rs: x})
		return e.newNode(node{kind: nFPR, ty: adl.TypeU64, fpr: d})
	case ssa.IntrFCmpNZCV:
		return e.fpCompare(args[0], args[1])
	case ssa.IntrSCvtF64:
		g := e.matG(args[0])
		d := e.newF()
		e.emitPure(vx64.Inst{Op: vx64.CVTSI2SD, Rd: d, Rs: g})
		return e.newNode(node{kind: nFPR, ty: adl.TypeU64, fpr: d})
	case ssa.IntrUCvtF64:
		g := e.matG(args[0])
		d := e.newF()
		e.emitPure(vx64.Inst{Op: vx64.CVTUI2SD, Rd: d, Rs: g})
		return e.newNode(node{kind: nFPR, ty: adl.TypeU64, fpr: d})
	case ssa.IntrFCvtZS64:
		return e.fpCvtZS(args[0])
	case ssa.IntrFCvtZU64:
		// VX64's CVTSD2UI is already saturating-unsigned (AVX-512 style),
		// matching ARM FCVTZU.
		x := e.matF(args[0])
		d := e.newG()
		e.emit(vx64.Inst{Op: vx64.CVTSD2UI, Rd: d, Rs: x})
		return e.newNode(node{kind: nGPR, ty: adl.TypeU64, gpr: d})
	case ssa.IntrSysRead:
		e.spillArg(hvm.StateArg0, args[0])
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hSysRead)})
		return e.newNode(node{kind: nGPR, ty: adl.TypeU64, gpr: e.loadRet()})
	case ssa.IntrSysWrite:
		e.spillArg(hvm.StateArg0, args[0])
		e.spillArg(hvm.StateArg1, args[1])
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hSysWrite)})
		return e.Const(adl.TypeU64, 0)
	case ssa.IntrSVC:
		e.spillArg(hvm.StateArg0, args[0])
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hSVC)})
		return e.Const(adl.TypeU64, 0)
	case ssa.IntrBRK:
		e.spillArg(hvm.StateArg0, args[0])
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hBRK)})
		return e.Const(adl.TypeU64, 0)
	case ssa.IntrERet:
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hERet)})
		return e.Const(adl.TypeU64, 0)
	case ssa.IntrTLBIAll:
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hTLBI)})
		return e.Const(adl.TypeU64, 0)
	case ssa.IntrHlt:
		e.spillArg(hvm.StateArg0, args[0])
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hHlt)})
		return e.Const(adl.TypeU64, 0)
	case ssa.IntrWFI:
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hWFI)})
		return e.Const(adl.TypeU64, 0)
	}
	panic(fmt.Sprintf("core: unknown intrinsic %s", intr.Name))
}

var fpHostOp = map[ssa.IntrID]vx64.Op{
	ssa.IntrFAdd64: vx64.FADD,
	ssa.IntrFSub64: vx64.FSUB,
	ssa.IntrFMul64: vx64.FMUL,
	ssa.IntrFDiv64: vx64.FDIV,
}

// fpOpCode maps intrinsics to the softfloat.FPOp codes used by the fix-up
// and soft-FP helpers.
var fpOpCode = map[ssa.IntrID]softfloat.FPOp{
	ssa.IntrFAdd64:  softfloat.FPAdd,
	ssa.IntrFSub64:  softfloat.FPSub,
	ssa.IntrFMul64:  softfloat.FPMul,
	ssa.IntrFDiv64:  softfloat.FPDiv,
	ssa.IntrFSqrt64: softfloat.FPSqrt,
}

// hardFPBinary emits the host FP instruction plus the NaN-triggered ARM
// fix-up: FCMP xd,xd sets the unordered flag only when the result is NaN —
// the single case where host and guest bit patterns can diverge (Table 2) —
// and the out-of-line path recomputes via the runtime.
func (e *Emitter) hardFPBinary(id ssa.IntrID, a, b gen.Val) gen.Val {
	xa := e.matF(a)
	xb := e.matF(b)
	xd := e.newF()
	e.emitPure(vx64.Inst{Op: fpHostOp[id], Rd: xd, Rs: xa, Rs2: xb})
	e.emitFPFixup(xd, xa, xb, fpOpCode[id])
	return e.newNode(node{kind: nFPR, ty: adl.TypeU64, fpr: xd})
}

func (e *Emitter) hardFPSqrt(a gen.Val) gen.Val {
	xa := e.matF(a)
	xd := e.newF()
	e.emitPure(vx64.Inst{Op: vx64.FSQRT, Rd: xd, Rs: xa})
	e.emitFPFixup(xd, xa, xa, softfloat.FPSqrt)
	return e.newNode(node{kind: nFPR, ty: adl.TypeU64, fpr: xd})
}

func (e *Emitter) emitFPFixup(xd, xa, xb uint16, op softfloat.FPOp) {
	e.emit(vx64.Inst{Op: vx64.FCMP, Rd: xd, Rs: xd})
	cold := e.coldBlock()
	e.emitBr(vx64.Inst{Op: vx64.JCC, Cond: vx64.CondUO}, cold.id)
	join := e.splitHere()
	e.inBlock(cold, func() {
		ga := e.newG()
		e.emit(vx64.Inst{Op: vx64.FMOVrx, Rd: ga, Rs: xa})
		e.spillArgReg(hvm.StateArg1, ga)
		gb := e.newG()
		e.emit(vx64.Inst{Op: vx64.FMOVrx, Rd: gb, Rs: xb})
		e.spillArgReg(hvm.StateArg2, gb)
		e.spillArgImm(hvm.StateArg0, uint64(op))
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hFPFixup)})
		e.emit(vx64.Inst{Op: vx64.FLD, Rd: xd,
			M: vx64.Mem{Base: vx64.RSTA, Index: vx64.NoReg, Scale: 1, Disp: hvm.StateRet}})
		e.emitBr(vx64.Inst{Op: vx64.JMP}, join.id)
	})
}

// softFPBinary is the §3.6.2 ablation: helper-call floating point, the
// QEMU-style implementation, selectable inside Captive.
func (e *Emitter) softFPBinary(id ssa.IntrID, a, b gen.Val) gen.Val {
	e.spillArgImm(hvm.StateArg0, uint64(fpOpCode[id]))
	e.spillArg(hvm.StateArg1, a)
	e.spillArg(hvm.StateArg2, b)
	e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hFPSoft)})
	return e.newNode(node{kind: nGPR, ty: adl.TypeU64, gpr: e.loadRet()})
}

// fpCompare emits UCOMISD plus the CMOV chain materializing the ARM NZCV
// nibble: unordered→0011, less→1000, equal→0110, greater→0010.
func (e *Emitter) fpCompare(a, b gen.Val) gen.Val {
	xa := e.matF(a)
	xb := e.matF(b)
	d := e.newG()
	t := e.newG()
	e.emit(vx64.Inst{Op: vx64.FCMP, Rd: xa, Rs: xb})
	e.emitPure(vx64.Inst{Op: vx64.MOVI8, Rd: d, Imm: 0b0010}) // greater
	e.emitPure(vx64.Inst{Op: vx64.MOVI8, Rd: t, Imm: 0b0110}) // equal
	e.emitPure(vx64.Inst{Op: vx64.CMOVcc, Cond: vx64.CondEQ, Rd: d, Rs: t})
	e.emitPure(vx64.Inst{Op: vx64.MOVI8, Rd: t, Imm: 0b1000}) // less
	e.emitPure(vx64.Inst{Op: vx64.CMOVcc, Cond: vx64.CondB, Rd: d, Rs: t})
	e.emitPure(vx64.Inst{Op: vx64.MOVI8, Rd: t, Imm: 0b0011}) // unordered
	e.emitPure(vx64.Inst{Op: vx64.CMOVcc, Cond: vx64.CondUO, Rd: d, Rs: t})
	return e.newNode(node{kind: nGPR, ty: adl.TypeU64, gpr: d})
}

// fpCvtZS emits the truncating convert plus the ARM fix-up: x86 returns the
// integer indefinite (MinInt64) for NaN and overflow; ARM saturates and maps
// NaN to 0. The indefinite pattern triggers the out-of-line recompute (it
// also triggers for a genuine MinInt64 input, which recomputes to the same
// value).
func (e *Emitter) fpCvtZS(a gen.Val) gen.Val {
	xa := e.matF(a)
	d := e.newG()
	e.emit(vx64.Inst{Op: vx64.CVTSD2SI, Rd: d, Rs: xa})
	t := e.newG()
	e.emitPure(vx64.Inst{Op: vx64.MOVI64, Rd: t, Imm: -1 << 63})
	e.emit(vx64.Inst{Op: vx64.CMPrr, Rd: d, Rs: t})
	cold := e.coldBlock()
	e.emitBr(vx64.Inst{Op: vx64.JCC, Cond: vx64.CondEQ}, cold.id)
	join := e.splitHere()
	e.inBlock(cold, func() {
		g := e.newG()
		e.emit(vx64.Inst{Op: vx64.FMOVrx, Rd: g, Rs: xa})
		e.spillArgReg(hvm.StateArg1, g)
		e.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hFCvtZS)})
		e.emit(vx64.Inst{Op: vx64.LOAD64, Rd: d,
			M: vx64.Mem{Base: vx64.RSTA, Index: vx64.NoReg, Scale: 1, Disp: hvm.StateRet}})
		e.emitBr(vx64.Inst{Op: vx64.JMP}, join.id)
	})
	return e.newNode(node{kind: nGPR, ty: adl.TypeS64, gpr: d})
}

// --- finalization ------------------------------------------------------------

// Finalize lays out main-stream blocks followed by cold blocks and returns
// the linear LIR. Each block starts with a label pseudo-instruction (a NOP
// carrying the block ref as Target) that survives register allocation, so
// the encoder can resolve branch targets after spill insertion and
// dead-code removal shift positions.
//
// The result is valid until the emitter's next reset.
func (e *Emitter) Finalize() []LInst {
	out := e.lir[:0]
	for _, bs := range [2][]*eblock{e.layout, e.cold} {
		for _, b := range bs {
			out = append(out, LInst{I: vx64.Inst{Op: vx64.NOP}, Target: b.id, Label: true})
			out = append(out, b.insts...)
		}
	}
	for i := range out {
		if !out[i].Label && out[i].Target != noTarget && !e.blocks[out[i].Target].placed {
			panic("core: branch to unplaced emitter block")
		}
	}
	e.lir = out
	return out
}
