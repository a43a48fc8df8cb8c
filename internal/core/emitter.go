// Package core is the Captive engine: the online DBT of §2.3. For each
// guest basic block it decodes instructions, invokes the generator functions
// (internal/gen) against an invocation-DAG emitter that collapses, feed-
// forward, into low-level IR (VX64 instructions with virtual registers),
// allocates registers, encodes machine code into the code cache inside the
// host VM, and executes it on the VX64 CPU at the protection ring matching
// the guest's exception level. Guest virtual memory is mapped by the host
// MMU: the engine populates host page tables from guest page tables on
// demand (§2.7), with the dual-root + PCID scheme for the 64-bit guest
// address space and write-protection-based self-modifying-code detection
// (§2.6).
package core

import (
	"fmt"

	"captive/internal/adl"
	"captive/internal/gen"
	"captive/internal/ssa"
	"captive/internal/vx64"
)

// LInst is one low-level IR instruction: a VX64 instruction whose register
// fields may name virtual registers (ids >= 16), plus emitter metadata.
type LInst struct {
	I vx64.Inst
	// Target is the emitter block a JCC/JMP refers to (-1 when the branch
	// displacement is already final), or, for Label pseudo-instructions,
	// the block that starts here.
	Target gen.BlockRef
	// Label marks a block-start pseudo-instruction (not encoded).
	Label bool
	// Pure marks instructions that may be dead-code-eliminated by the
	// register allocator: no memory side effects and no possible fault.
	Pure bool
}

const noTarget gen.BlockRef = -1

// firstVreg is the first virtual register id; 0..15 are physical.
const firstVreg = 16

// node is an invocation-DAG node. Pure nodes are lazy: no code exists until
// a side-effecting consumer collapses them (§2.3.2's feed-forward emission).
type node struct {
	kind  nodeKind
	ty    adl.TypeName
	a, b  gen.Val
	binOp ssa.BinOp
	unOp  ssa.UnOp
	from  adl.TypeName
	cval  uint64
	// bank load specifics
	memOff int32
	// materialization state
	gpr uint16 // virtual/physical GPR holding the value (0 = none)
	fpr uint16 // virtual FP register holding the value (0 = none)
}

type nodeKind uint8

const (
	nConst nodeKind = iota
	nGPR            // value lives in .gpr
	nFPR            // value lives in .fpr
	nBin
	nUn
	nCast
	nSelect
	nLoadBank // lazy register-file load at [R14 + memOff]
	nReadPC
)

type eblock struct {
	id     gen.BlockRef
	insts  []LInst
	placed bool
}

// Emitter implements gen.Emitter with an invocation DAG collapsing to LIR.
// Each engine owns one and resets it per guest block: every buffer keeps its
// capacity, and blocks[len:cap] pools the emitter blocks of earlier
// translations, each keeping its instruction buffer.
type Emitter struct {
	eng *Engine

	nodes  []node
	blocks []*eblock // indexed by gen.BlockRef
	layout []*eblock // main-stream order (fall-through semantics)
	cold   []*eblock // out-of-line slow paths, appended after the stream
	cur    *eblock

	nextGPR uint16
	nextFPR uint16

	locals []uint16 // LocalRef -> GPR vreg

	// pendingBankLoads lists unmaterialized nLoadBank vals for forced
	// materialization before a bank write (lazy bank loads are never
	// reused across a write: forcing them first keeps the ordering).
	pendingBankLoads []gen.Val

	// pendingLazy lists every unmaterialized lazy node created since the
	// last control-flow transition. Lazy collapse is only sound while
	// emission stays inside one emitter block: a value created in block A
	// but first materialized inside a conditionally-executed successor
	// would leave its vreg garbage on the other paths (the O4
	// local-propagation SSA shape — a bank read in the entry block consumed
	// in both arms of a branch — hits exactly this). flushPending
	// materializes them in their defining block before the transition;
	// unused materializations are Pure and dead-code-eliminated.
	pendingLazy []gen.Val

	// pcWriteConstOnly reports whether every WritePC was PC+const (the
	// block's exit is direct, so it may be chained).
	pcWriteConstOnly bool

	lir []LInst // Finalize's result
}

// reset starts the translation of a guest block.
func (e *Emitter) reset() {
	e.nodes = e.nodes[:0]
	e.blocks = e.blocks[:0]
	e.layout = e.layout[:0]
	e.cold = e.cold[:0]
	e.nextGPR, e.nextFPR = firstVreg, firstVreg
	e.locals = e.locals[:0]
	e.pendingBankLoads = e.pendingBankLoads[:0]
	e.pendingLazy = e.pendingLazy[:0]
	e.pcWriteConstOnly = true
	e.cur = e.newBlock(true)
	e.layout = append(e.layout, e.cur)
}

// newBlock returns a new empty emitter block, taken from the pool when it
// has one.
func (e *Emitter) newBlock(placed bool) *eblock {
	n := len(e.blocks)
	if n < cap(e.blocks) {
		e.blocks = e.blocks[:n+1]
	} else {
		e.blocks = append(e.blocks, nil)
	}
	b := e.blocks[n]
	if b == nil {
		b = new(eblock)
		e.blocks[n] = b
	}
	*b = eblock{id: gen.BlockRef(n), insts: b.insts[:0], placed: placed}
	return b
}

func (e *Emitter) newNode(n node) gen.Val {
	e.nodes = append(e.nodes, n)
	v := gen.Val(len(e.nodes) - 1)
	if n.gpr == 0 && n.fpr == 0 {
		e.pendingLazy = append(e.pendingLazy, v)
	}
	return v
}

// flushPending materializes every still-lazy node in the current block —
// the ordering barrier run before control leaves it. except (or gen.NoVal)
// names a value deliberately kept lazy (WritePC's PC+const specialization
// pattern-matches on the unmaterialized shape).
func (e *Emitter) flushPending(except gen.Val) {
	// Filtered in place: matG creates no nodes, so nothing is appended
	// behind the read position.
	pending := e.pendingLazy
	e.pendingLazy = pending[:0]
	for _, v := range pending {
		if v == except {
			e.pendingLazy = append(e.pendingLazy, v)
			continue
		}
		if n := &e.nodes[v]; n.gpr == 0 && n.fpr == 0 {
			e.matG(v)
		}
	}
}

func (e *Emitter) newG() uint16 { e.nextGPR++; return e.nextGPR - 1 }
func (e *Emitter) newF() uint16 { e.nextFPR++; return e.nextFPR - 1 }

func (e *Emitter) emit(i vx64.Inst) {
	e.cur.insts = append(e.cur.insts, LInst{I: i, Target: noTarget})
}

func (e *Emitter) emitPure(i vx64.Inst) {
	e.cur.insts = append(e.cur.insts, LInst{I: i, Target: noTarget, Pure: true})
}

func (e *Emitter) emitBr(i vx64.Inst, t gen.BlockRef) {
	e.cur.insts = append(e.cur.insts, LInst{I: i, Target: t})
}

// splitHere starts a new fall-through block in the main stream and returns
// it (used as the join point after an out-of-line slow path).
func (e *Emitter) splitHere() *eblock {
	b := e.newBlock(true)
	e.layout = append(e.layout, b)
	e.cur = b
	return b
}

// coldBlock creates an out-of-line block placed after the main stream.
func (e *Emitter) coldBlock() *eblock {
	b := e.newBlock(true)
	e.cold = append(e.cold, b)
	return b
}

// inBlock emits into b and restores the current block afterwards.
func (e *Emitter) inBlock(b *eblock, f func()) {
	saved := e.cur
	e.cur = b
	f()
	e.cur = saved
}

// --- materialization -------------------------------------------------------

// matG returns a GPR (physical or virtual) holding the node's value,
// emitting collapse code on demand.
func (e *Emitter) matG(v gen.Val) uint16 {
	n := &e.nodes[v]
	if n.gpr != 0 {
		return n.gpr
	}
	switch n.kind {
	case nConst:
		d := e.newG()
		e.emitPure(movImm(d, n.cval))
		n.gpr = d
	case nGPR:
		return n.gpr
	case nFPR:
		d := e.newG()
		e.emitPure(vx64.Inst{Op: vx64.FMOVrx, Rd: d, Rs: n.fpr})
		n.gpr = d
	case nLoadBank:
		d := e.newG()
		op := loadOpFor(n.ty)
		e.emitPure(vx64.Inst{Op: op, Rd: d, M: vx64.Mem{Base: vx64.RRF, Index: vx64.NoReg, Scale: 1, Disp: n.memOff}})
		n.gpr = d
	case nReadPC:
		d := e.newG()
		e.emitPure(vx64.Inst{Op: vx64.MOVrr, Rd: d, Rs: uint16(vx64.RPC)})
		n.gpr = d
	case nBin:
		n.gpr = e.collapseBin(v)
	case nUn:
		a := e.matG(e.nodes[v].a)
		n = &e.nodes[v] // re-take: matG may grow e.nodes? (it doesn't, but keep safe)
		d := e.newG()
		e.emitPure(vx64.Inst{Op: vx64.MOVrr, Rd: d, Rs: a})
		if n.unOp == ssa.UnNeg {
			e.emitPure(vx64.Inst{Op: vx64.NEGr, Rd: d})
		} else {
			e.emitPure(vx64.Inst{Op: vx64.NOTr, Rd: d})
		}
		e.canon(d, n.ty)
		n.gpr = d
	case nCast:
		a := e.matG(e.nodes[v].a)
		n = &e.nodes[v]
		d := e.newG()
		e.emitPure(vx64.Inst{Op: vx64.MOVrr, Rd: d, Rs: a})
		e.canon(d, n.ty)
		n.gpr = d
	case nSelect:
		c := e.matG(e.nodes[v].a)
		bn := e.nodes[v]
		tv := e.matG(gen.Val(bn.cval)) // select stores tv/fv in cval/b
		fv := e.matG(bn.b)
		d := e.newG()
		e.emitPure(vx64.Inst{Op: vx64.MOVrr, Rd: d, Rs: fv})
		e.emitPure(vx64.Inst{Op: vx64.TESTrr, Rd: c, Rs: c})
		e.emitPure(vx64.Inst{Op: vx64.CMOVcc, Cond: vx64.CondNE, Rd: d, Rs: tv})
		e.nodes[v].gpr = d
	default:
		panic("core: cannot materialize node")
	}
	return e.nodes[v].gpr
}

// matF returns an FP register holding the node's value. Direct loads from
// the guest register file collapse to a single FLD — the specialization that
// produces the paper's `movq 0x110(%rbp),%xmm0` pattern (Fig. 13).
func (e *Emitter) matF(v gen.Val) uint16 {
	n := &e.nodes[v]
	if n.fpr != 0 {
		return n.fpr
	}
	if n.kind == nLoadBank && n.gpr == 0 && n.ty.Bits() == 64 {
		d := e.newF()
		e.emitPure(vx64.Inst{Op: vx64.FLD, Rd: d, M: vx64.Mem{Base: vx64.RRF, Index: vx64.NoReg, Scale: 1, Disp: n.memOff}})
		n.fpr = d
		return d
	}
	g := e.matG(v)
	d := e.newF()
	e.emitPure(vx64.Inst{Op: vx64.FMOVxr, Rd: d, Rs: g})
	e.nodes[v].fpr = d
	return d
}

// canon truncates/extends d in place to ty's canonical 64-bit form.
func (e *Emitter) canon(d uint16, ty adl.TypeName) {
	switch ty {
	case adl.TypeU64, adl.TypeS64, adl.TypeVoid:
		return
	case adl.TypeU1:
		e.emitPure(vx64.Inst{Op: vx64.ANDri, Rd: d, Imm: 1})
	case adl.TypeU8:
		e.emitPure(vx64.Inst{Op: vx64.ANDri, Rd: d, Imm: 0xFF})
	case adl.TypeU16:
		e.emitPure(vx64.Inst{Op: vx64.ANDri, Rd: d, Imm: 0xFFFF})
	case adl.TypeU32:
		// Zero-extend via shift pair (no 32-bit mov in VX64).
		e.emitPure(vx64.Inst{Op: vx64.SHLri, Rd: d, Imm: 32})
		e.emitPure(vx64.Inst{Op: vx64.SHRri, Rd: d, Imm: 32})
	case adl.TypeS8:
		e.emitPure(vx64.Inst{Op: vx64.SHLri, Rd: d, Imm: 56})
		e.emitPure(vx64.Inst{Op: vx64.SARri, Rd: d, Imm: 56})
	case adl.TypeS16:
		e.emitPure(vx64.Inst{Op: vx64.SHLri, Rd: d, Imm: 48})
		e.emitPure(vx64.Inst{Op: vx64.SARri, Rd: d, Imm: 48})
	case adl.TypeS32:
		e.emitPure(vx64.Inst{Op: vx64.SHLri, Rd: d, Imm: 32})
		e.emitPure(vx64.Inst{Op: vx64.SARri, Rd: d, Imm: 32})
	}
}

func movImm(d uint16, v uint64) vx64.Inst {
	s := int64(v)
	switch {
	case s >= -128 && s <= 127:
		return vx64.Inst{Op: vx64.MOVI8, Rd: d, Imm: s}
	case s >= -(1<<31) && s < 1<<31:
		return vx64.Inst{Op: vx64.MOVI32, Rd: d, Imm: s}
	default:
		return vx64.Inst{Op: vx64.MOVI64, Rd: d, Imm: s}
	}
}

// loadOpFor returns the load of a guest value of type ty: its width, and
// sign-extending when ty is signed.
func loadOpFor(ty adl.TypeName) vx64.Op {
	return vx64.MemOp(vx64.Load, uint8(ty.Bits()/8), ty.Signed())
}

// fitsImm32 reports whether v is usable as a sign-extended 32-bit ALU
// immediate.
func fitsImm32(v uint64) bool {
	s := int64(v)
	return s >= -(1<<31) && s < 1<<31
}

// riForm, rrForm and cmpCond are indexed by ssa.BinOp; a zero riForm or
// rrForm entry means the operator has no such form.
var riForm = [1 << 8]vx64.Op{
	ssa.BinAdd: vx64.ADDri, ssa.BinSub: vx64.SUBri,
	ssa.BinAnd: vx64.ANDri, ssa.BinOr: vx64.ORri, ssa.BinXor: vx64.XORri,
}

var rrForm = [1 << 8]vx64.Op{
	ssa.BinAdd: vx64.ADDrr, ssa.BinSub: vx64.SUBrr, ssa.BinMul: vx64.MULrr,
	ssa.BinAnd: vx64.ANDrr, ssa.BinOr: vx64.ORrr, ssa.BinXor: vx64.XORrr,
}

var cmpCond = [1 << 8]vx64.Cond{
	ssa.BinCmpEQ: vx64.CondEQ, ssa.BinCmpNE: vx64.CondNE,
	ssa.BinCmpLTu: vx64.CondB, ssa.BinCmpLTs: vx64.CondLT,
	ssa.BinCmpLEu: vx64.CondBE, ssa.BinCmpLEs: vx64.CondLE,
	ssa.BinCmpGTu: vx64.CondA, ssa.BinCmpGTs: vx64.CondGT,
	ssa.BinCmpGEu: vx64.CondAE, ssa.BinCmpGEs: vx64.CondGE,
}

// collapseBin emits code for a lazy binary node.
func (e *Emitter) collapseBin(v gen.Val) uint16 {
	n := e.nodes[v]
	op, ty := n.binOp, n.ty

	// Comparison: CMP + SETcc.
	if op.IsCompare() {
		cond := cmpCond[op]
		a := e.matG(n.a)
		d := e.newG()
		if bn := e.nodes[n.b]; bn.kind == nConst && fitsImm32(bn.cval) {
			e.emitPure(vx64.Inst{Op: vx64.CMPri, Rd: a, Imm: int64(bn.cval)})
		} else {
			b := e.matG(n.b)
			e.emitPure(vx64.Inst{Op: vx64.CMPrr, Rd: a, Rs: b})
		}
		e.emitPure(vx64.Inst{Op: vx64.SETcc, Cond: cond, Rd: d})
		return d
	}

	// Division and remainder need ARM-semantics guards (§2.2: the model's
	// x/0 = 0 and MinInt64/-1 = MinInt64 contract versus the host's #DE).
	switch op {
	case ssa.BinDivU, ssa.BinDivS, ssa.BinRemU, ssa.BinRemS:
		return e.collapseDiv(v)
	}

	a := e.matG(n.a)
	d := e.newG()
	e.emitPure(vx64.Inst{Op: vx64.MOVrr, Rd: d, Rs: a})

	switch op {
	case ssa.BinShl, ssa.BinShrU, ssa.BinShrS:
		var ri, rr vx64.Op
		switch op {
		case ssa.BinShl:
			ri, rr = vx64.SHLri, vx64.SHLrr
		case ssa.BinShrU:
			ri, rr = vx64.SHRri, vx64.SHRrr
		default:
			ri, rr = vx64.SARri, vx64.SARrr
		}
		if bn := e.nodes[n.b]; bn.kind == nConst {
			e.emitPure(vx64.Inst{Op: ri, Rd: d, Imm: int64(bn.cval & 63)})
		} else {
			b := e.matG(n.b)
			e.emitPure(vx64.Inst{Op: rr, Rd: d, Rs: b})
		}
		// Narrow shifts need canonicalization (left shifts overflow the
		// width; right shifts of canonical values stay canonical).
		if op == ssa.BinShl && ty.Bits() < 64 {
			e.canon(d, ty)
		}
		return d
	}

	if bn := e.nodes[n.b]; bn.kind == nConst && fitsImm32(bn.cval) && riForm[op] != 0 {
		e.emitPure(vx64.Inst{Op: riForm[op], Rd: d, Imm: int64(bn.cval)})
	} else {
		b := e.matG(n.b)
		rr := rrForm[op]
		if rr == 0 {
			panic(fmt.Sprintf("core: no rr form for %v", op))
		}
		e.emitPure(vx64.Inst{Op: rr, Rd: d, Rs: b})
	}
	// add/sub/mul can overflow narrow widths; logical ops preserve
	// canonical form.
	switch op {
	case ssa.BinAdd, ssa.BinSub, ssa.BinMul:
		if ty.Bits() < 64 {
			e.canon(d, ty)
		}
	}
	return d
}

// collapseDiv emits the guarded division sequence.
func (e *Emitter) collapseDiv(v gen.Val) uint16 {
	n := e.nodes[v]
	a := e.matG(n.a)
	b := e.matG(n.b)
	d := e.newG()
	e.emitPure(vx64.Inst{Op: vx64.MOVrr, Rd: d, Rs: a})

	signed := n.binOp == ssa.BinDivS || n.binOp == ssa.BinRemS
	rem := n.binOp == ssa.BinRemU || n.binOp == ssa.BinRemS

	zero := e.coldBlock()
	var minus1 *eblock
	if signed {
		minus1 = e.coldBlock()
	}

	// test divisor
	e.emit(vx64.Inst{Op: vx64.TESTrr, Rd: b, Rs: b})
	e.emitBr(vx64.Inst{Op: vx64.JCC, Cond: vx64.CondEQ}, zero.id)
	if signed {
		e.emit(vx64.Inst{Op: vx64.CMPri, Rd: b, Imm: -1})
		e.emitBr(vx64.Inst{Op: vx64.JCC, Cond: vx64.CondEQ}, minus1.id)
	}
	var op vx64.Op
	switch n.binOp {
	case ssa.BinDivU:
		op = vx64.UDIVrr
	case ssa.BinDivS:
		op = vx64.SDIVrr
	case ssa.BinRemU:
		op = vx64.UREMrr
	default:
		op = vx64.SREMrr
	}
	e.emit(vx64.Inst{Op: op, Rd: d, Rs: b})
	join := e.splitHere()

	e.inBlock(zero, func() {
		// ARM: anything / 0 = 0; anything % 0 = ... the model uses 0.
		e.emit(vx64.Inst{Op: vx64.XORrr, Rd: d, Rs: d})
		e.emitBr(vx64.Inst{Op: vx64.JMP}, join.id)
	})
	if signed {
		e.inBlock(minus1, func() {
			if rem {
				e.emit(vx64.Inst{Op: vx64.XORrr, Rd: d, Rs: d}) // x % -1 = 0
			} else {
				e.emit(vx64.Inst{Op: vx64.NEGr, Rd: d}) // x / -1 = -x (MinInt64 stays)
			}
			e.emitBr(vx64.Inst{Op: vx64.JMP}, join.id)
		})
	}
	if n.ty.Bits() < 64 {
		e.canon(d, n.ty)
	}
	return d
}

// --- gen.Emitter interface --------------------------------------------------

// Const implements gen.Emitter.
func (e *Emitter) Const(ty adl.TypeName, v uint64) gen.Val {
	return e.newNode(node{kind: nConst, ty: ty, cval: ssa.Canonicalize(v, ty)})
}

// BankReadFixed implements gen.Emitter: a lazy register-file load with the
// byte offset folded at translation time (Fig. 7's const_u32(256+16*insn.a)).
func (e *Emitter) BankReadFixed(bank *ssa.Bank, idx uint64) gen.Val {
	off := int32(bank.Offset) + int32(idx)*int32(bank.Stride)
	v := e.newNode(node{kind: nLoadBank, ty: bank.Type, memOff: off})
	e.pendingBankLoads = append(e.pendingBankLoads, v)
	return v
}

// BankRead implements gen.Emitter (dynamic register index).
func (e *Emitter) BankRead(bank *ssa.Bank, idx gen.Val) gen.Val {
	i := e.matG(idx)
	d := e.newG()
	e.emitPure(vx64.Inst{Op: loadOpFor(bank.Type), Rd: d,
		M: vx64.Mem{Base: vx64.RRF, Disp: int32(bank.Offset)}, MBaseV: 0, MIndexV: i})
	// Scale by stride via the index scale when possible.
	b := &e.cur.insts[len(e.cur.insts)-1]
	b.I.M.Scale = uint8(bank.Stride)
	b.I.M.Index = vx64.Reg(0) // placeholder; MIndexV names the vreg
	return e.newNode(node{kind: nGPR, ty: bank.Type, gpr: d})
}

// BankWriteFixed implements gen.Emitter.
func (e *Emitter) BankWriteFixed(bank *ssa.Bank, idx uint64, val gen.Val) {
	e.forceBankLoads()
	off := int32(bank.Offset) + int32(idx)*int32(bank.Stride)
	// FP values stored directly from the FP register file (Fig. 13's
	// `movq %xmm0,0x100(%rbp)` pattern).
	if n := e.nodes[val]; n.fpr != 0 && bank.Stride == 8 {
		e.emit(vx64.Inst{Op: vx64.FST, Rs: n.fpr,
			M: vx64.Mem{Base: vx64.RRF, Index: vx64.NoReg, Scale: 1, Disp: off}})
		return
	}
	g := e.matG(val)
	e.emit(vx64.Inst{Op: vx64.MemOp(vx64.Store, uint8(bank.Stride), false), Rs: g,
		M: vx64.Mem{Base: vx64.RRF, Index: vx64.NoReg, Scale: 1, Disp: off}})
}

// BankWrite implements gen.Emitter (dynamic register index).
func (e *Emitter) BankWrite(bank *ssa.Bank, idx gen.Val, val gen.Val) {
	e.forceBankLoads()
	i := e.matG(idx)
	g := e.matG(val)
	e.emit(vx64.Inst{Op: vx64.MemOp(vx64.Store, uint8(bank.Stride), false), Rs: g,
		M:       vx64.Mem{Base: vx64.RRF, Disp: int32(bank.Offset), Scale: uint8(bank.Stride), Index: vx64.Reg(0)},
		MIndexV: i})
}

// forceBankLoads materializes pending lazy bank loads (ordering barrier
// before a bank write).
func (e *Emitter) forceBankLoads() {
	pending := e.pendingBankLoads
	e.pendingBankLoads = e.pendingBankLoads[:0]
	for _, v := range pending {
		n := &e.nodes[v]
		if n.kind == nLoadBank && n.gpr == 0 && n.fpr == 0 {
			e.matG(v)
		}
	}
}

// Binary implements gen.Emitter with DAG-level constant folding.
func (e *Emitter) Binary(op ssa.BinOp, ty adl.TypeName, a, b gen.Val) gen.Val {
	an, bn := e.nodes[a], e.nodes[b]
	if an.kind == nConst && bn.kind == nConst {
		rty := ty
		if op.IsCompare() {
			rty = adl.TypeU1
		}
		return e.newNode(node{kind: nConst, ty: rty, cval: ssa.EvalBinary(op, ty, an.cval, bn.cval)})
	}
	rty := ty
	if op.IsCompare() {
		rty = adl.TypeU1
	}
	return e.newNode(node{kind: nBin, ty: rty, binOp: op, a: a, b: b})
}

// Unary implements gen.Emitter.
func (e *Emitter) Unary(op ssa.UnOp, ty adl.TypeName, a gen.Val) gen.Val {
	if an := e.nodes[a]; an.kind == nConst {
		return e.newNode(node{kind: nConst, ty: ty, cval: ssa.EvalUnary(op, ty, an.cval)})
	}
	return e.newNode(node{kind: nUn, ty: ty, unOp: op, a: a})
}

// Cast implements gen.Emitter.
func (e *Emitter) Cast(from, to adl.TypeName, a gen.Val) gen.Val {
	if an := e.nodes[a]; an.kind == nConst {
		return e.newNode(node{kind: nConst, ty: to, cval: ssa.EvalCast(an.cval, from, to)})
	}
	// Widening an already-canonical value to 64 bits is a no-op: the
	// node's canonical 64-bit value is the cast.
	if from == to || to.Bits() == 64 {
		return a
	}
	return e.newNode(node{kind: nCast, ty: to, from: from, a: a})
}

// Select implements gen.Emitter.
func (e *Emitter) Select(ty adl.TypeName, cond, t, f gen.Val) gen.Val {
	if cn := e.nodes[cond]; cn.kind == nConst {
		if cn.cval != 0 {
			return t
		}
		return f
	}
	// Select stores t in cval (as an index) and f in b.
	return e.newNode(node{kind: nSelect, ty: ty, a: cond, cval: uint64(t), b: f})
}

// ReadPC implements gen.Emitter.
func (e *Emitter) ReadPC() gen.Val { return e.newNode(node{kind: nReadPC, ty: adl.TypeU64}) }

// WritePC implements gen.Emitter with the Fig. 9(d) specialization: a store
// of PC+const collapses to a single add on the PC register. Pending lazy
// values are materialized first — any of them may transitively read the PC
// register this write is about to redirect (the jal link-register hazard).
func (e *Emitter) WritePC(v gen.Val) {
	e.flushPending(v)
	n := e.nodes[v]
	if n.kind == nBin && n.binOp == ssa.BinAdd {
		an, bn := e.nodes[n.a], e.nodes[n.b]
		if an.kind == nReadPC && bn.kind == nConst && fitsImm32(bn.cval) {
			e.emit(vx64.Inst{Op: vx64.ADDri, Rd: uint16(vx64.RPC), Imm: int64(bn.cval)})
			return
		}
		if bn.kind == nReadPC && an.kind == nConst && fitsImm32(an.cval) {
			e.emit(vx64.Inst{Op: vx64.ADDri, Rd: uint16(vx64.RPC), Imm: int64(an.cval)})
			return
		}
	}
	e.pcWriteConstOnly = false
	g := e.matG(v)
	e.emit(vx64.Inst{Op: vx64.MOVrr, Rd: uint16(vx64.RPC), Rs: g})
}

// IncPC implements gen.Emitter.
func (e *Emitter) IncPC(n uint64) {
	e.emit(vx64.Inst{Op: vx64.ADDri, Rd: uint16(vx64.RPC), Imm: int64(n)})
}

// NewBlock implements gen.Emitter.
func (e *Emitter) NewBlock() gen.BlockRef {
	return e.newBlock(false).id
}

// SetBlock implements gen.Emitter. Any values still lazy are materialized
// into the block being left, where they dominate their later uses.
func (e *Emitter) SetBlock(id gen.BlockRef) {
	e.flushPending(gen.NoVal)
	b := e.blocks[id]
	if !b.placed {
		b.placed = true
		e.layout = append(e.layout, b)
	}
	e.cur = b
}

// Jump implements gen.Emitter.
func (e *Emitter) Jump(id gen.BlockRef) {
	e.flushPending(gen.NoVal)
	e.emitBr(vx64.Inst{Op: vx64.JMP}, id)
}

// Branch implements gen.Emitter.
func (e *Emitter) Branch(cond gen.Val, t, f gen.BlockRef) {
	e.flushPending(gen.NoVal)
	c := e.matG(cond)
	e.emit(vx64.Inst{Op: vx64.TESTrr, Rd: c, Rs: c})
	e.emitBr(vx64.Inst{Op: vx64.JCC, Cond: vx64.CondNE}, t)
	e.emitBr(vx64.Inst{Op: vx64.JMP}, f)
}

// AllocLocal implements gen.Emitter.
func (e *Emitter) AllocLocal(ty adl.TypeName) gen.LocalRef {
	v := e.newG()
	e.locals = append(e.locals, v)
	return gen.LocalRef(len(e.locals) - 1)
}

// ReadLocal implements gen.Emitter: an eager copy, so later writes to the
// local do not retroactively change this value.
func (e *Emitter) ReadLocal(l gen.LocalRef, ty adl.TypeName) gen.Val {
	d := e.newG()
	e.emitPure(vx64.Inst{Op: vx64.MOVrr, Rd: d, Rs: e.locals[l]})
	return e.newNode(node{kind: nGPR, ty: ty, gpr: d})
}

// WriteLocal implements gen.Emitter.
func (e *Emitter) WriteLocal(l gen.LocalRef, v gen.Val) {
	g := e.matG(v)
	e.emit(vx64.Inst{Op: vx64.MOVrr, Rd: e.locals[l], Rs: g})
}
