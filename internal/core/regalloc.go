package core

import (
	"cmp"
	"fmt"
	"slices"

	"captive/internal/vx64"
)

// Register allocation (§2.3.3): a forward pass discovers live ranges, the
// ranges become intervals allocated by linear scan (spilling the interval
// with the farthest end under pressure, in the spirit of the simplified
// graph-coloring scheme of Cai et al. the paper cites), and instructions
// whose pure results are never used are marked dead so the encoder skips
// them.
//
// Register pools:
//
//	GPR: R0–R6 allocatable; R7, R8, R12 spill shuttles;
//	     R9/R10 address-space masks, R11 stack, R13–R15 pinned.
//	FP:  X0–X12 allocatable; X13–X15 spill shuttles.

var gprPool = []uint16{0, 1, 2, 3, 4, 5, 6}
var fprPool = []uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}

var gprShuttles = []uint16{7, 8, 12}
var fprShuttles = []uint16{13, 14, 15}

// opnd is one register operand of an instruction: the field holding it
// and, from the opcode table, its roles and register class.
type opnd struct {
	field *uint16 // pointer to Rd/Rs/Rs2/MBaseV/MIndexV
	vx64.Operand
}

// class is the operand's register class: 0 for GPRs, 1 for FP registers.
func (o opnd) class() int {
	if o.FP() {
		return 1
	}
	return 0
}

// interval is one virtual register's live range and assignment.
type interval struct {
	start, end int    // first and last non-dead instruction; start < 0 when the vreg has no range
	reg        uint16 // assigned physical register
	slot       int    // spill slot index, -1 when in a register
}

// AllocStats reports allocator work for the JIT statistics.
type AllocStats struct {
	Spilled int
	Dead    int
}

// allocator is one engine's register-allocation scratch, reset (not
// reallocated) per block. Virtual registers are dense from firstVreg in each
// class, so per-vreg state lives in slices indexed by id − firstVreg, one
// per class (0 GPR, 1 FP).
type allocator struct {
	ops    []opnd        // every instruction's operands, in instruction order
	opOff  []int32       // lir[i]'s operands are ops[opOff[i]:opOff[i+1]]
	uses   [2][]int32    // use count per vreg
	ivs    [2][]interval // live interval per vreg
	order  [2][]int32    // vregs with an interval, by (start, vreg id)
	active []int32       // vregs holding a register at the scan position
	free   []uint16      // unassigned registers of the class being scanned
	out    []LInst       // the rewritten block
}

// operands returns lir[idx]'s operands as computed at the start of allocate.
func (a *allocator) operands(idx int) []opnd { return a.ops[a.opOff[idx]:a.opOff[idx+1]] }

// allocate performs dead-code marking, liveness analysis, linear-scan
// assignment and the rewrite to physical registers, which it makes in lir
// itself. It returns the rewritten instruction list (with spill code
// inserted), valid until the next call, and statistics.
func (a *allocator) allocate(lir []LInst) ([]LInst, AllocStats, error) {
	var stats AllocStats

	// --- operands, once per block; vreg counts per class ---
	a.ops = a.ops[:0]
	a.opOff = append(a.opOff[:0], 0)
	for idx := range lir {
		a.ops = appendOperands(a.ops, &lir[idx])
		a.opOff = append(a.opOff, int32(len(a.ops)))
	}
	var nv [2]int
	for _, o := range a.ops {
		if *o.field >= firstVreg {
			nv[o.class()] = max(nv[o.class()], int(*o.field-firstVreg)+1)
		}
	}
	for c, n := range nv {
		a.uses[c] = slices.Grow(a.uses[c][:0], n)[:n]
		clear(a.uses[c])
		a.ivs[c] = slices.Grow(a.ivs[c][:0], n)[:n]
		for v := range a.ivs[c] {
			a.ivs[c][v] = interval{start: -1, slot: -1}
		}
		a.order[c] = a.order[c][:0]
	}

	// --- dead-code marking (backward, with use counts) ---
	for _, o := range a.ops {
		if *o.field >= firstVreg && o.Use() {
			a.uses[o.class()][*o.field-firstVreg]++
		}
	}
	for idx := len(lir) - 1; idx >= 0; idx-- {
		li := &lir[idx]
		if !li.Pure || li.Target != noTarget {
			continue
		}
		ops := a.operands(idx)
		deadOK := false
		for _, o := range ops {
			if o.Def() && *o.field >= firstVreg {
				if a.uses[o.class()][*o.field-firstVreg] == 0 {
					deadOK = true
				} else {
					deadOK = false
					break
				}
			}
		}
		if deadOK {
			li.I.Dead = true
			stats.Dead++
			for _, o := range ops {
				if o.Use() && *o.field >= firstVreg {
					a.uses[o.class()][*o.field-firstVreg]--
				}
			}
		}
	}

	// --- live ranges over non-dead instructions ---
	for idx := range lir {
		if lir[idx].I.Dead {
			continue
		}
		for _, o := range a.operands(idx) {
			if *o.field < firstVreg {
				continue
			}
			c, v := o.class(), *o.field-firstVreg
			iv := &a.ivs[c][v]
			if iv.start < 0 {
				iv.start = idx
				a.order[c] = append(a.order[c], int32(v))
			}
			iv.end = idx
		}
	}

	// --- linear scan, GPRs then FP registers ---
	nextSlot := 0
	for c, pool := range [2][]uint16{gprPool, fprPool} {
		ivs := a.ivs[c]
		slices.SortFunc(a.order[c], func(x, y int32) int {
			if d := cmp.Compare(ivs[x].start, ivs[y].start); d != 0 {
				return d
			}
			return cmp.Compare(x, y)
		})
		a.free = append(a.free[:0], pool...)
		a.active = a.active[:0]
		for _, v := range a.order[c] {
			iv := &ivs[v]
			// Expire.
			keep := a.active[:0]
			for _, x := range a.active {
				if ivs[x].end < iv.start {
					a.free = append(a.free, ivs[x].reg)
				} else {
					keep = append(keep, x)
				}
			}
			a.active = keep
			if len(a.free) > 0 {
				iv.reg = a.free[len(a.free)-1]
				a.free = a.free[:len(a.free)-1]
				a.active = append(a.active, v)
				continue
			}
			// Spill the interval with the farthest end.
			victim := v
			for _, x := range a.active {
				if ivs[x].end > ivs[victim].end {
					victim = x
				}
			}
			if victim == v {
				iv.slot = nextSlot
				nextSlot++
				stats.Spilled++
				continue
			}
			iv.reg = ivs[victim].reg
			ivs[victim].slot = nextSlot
			ivs[victim].reg = 0
			nextSlot++
			stats.Spilled++
			for i, x := range a.active {
				if x == victim {
					a.active[i] = v
					break
				}
			}
		}
	}

	// --- rewrite ---
	a.out = a.out[:0]
	for idx := range lir {
		li := &lir[idx]
		if li.I.Dead {
			continue
		}
		hadBaseV := li.I.MBaseV != 0
		hadIndexV := li.I.MIndexV != 0
		gprS, fprS := 0, 0
		type deferred struct {
			reg  uint16
			slot int
			fp   bool
		}
		var defStores [3]deferred // an instruction has at most three register operands
		nDefs := 0
		for _, o := range a.operands(idx) {
			if *o.field < firstVreg {
				continue
			}
			iv := &a.ivs[o.class()][*o.field-firstVreg]
			if iv.start < 0 {
				return nil, stats, fmt.Errorf("core: vreg %d used without range", *o.field)
			}
			if iv.slot < 0 {
				*o.field = iv.reg
				continue
			}
			// Spilled: shuttle through a reserved register.
			var sh uint16
			if o.FP() {
				if fprS >= len(fprShuttles) {
					return nil, stats, fmt.Errorf("core: out of FP shuttles")
				}
				sh = fprShuttles[fprS]
				fprS++
			} else {
				if gprS >= len(gprShuttles) {
					return nil, stats, fmt.Errorf("core: out of GPR shuttles")
				}
				sh = gprShuttles[gprS]
				gprS++
			}
			disp := int32(-8 * (iv.slot + 1))
			if o.Use() {
				ld := vx64.LOAD64
				if o.FP() {
					ld = vx64.FLD
				}
				a.out = append(a.out, LInst{I: vx64.Inst{Op: ld, Rd: sh,
					M: vx64.Mem{Base: vx64.RSP, Index: vx64.NoReg, Scale: 1, Disp: disp}}, Target: noTarget})
			}
			if o.Def() {
				defStores[nDefs] = deferred{reg: sh, slot: iv.slot, fp: o.FP()}
				nDefs++
			}
			*o.field = sh
		}
		// Fold allocated memory-operand registers into the Mem operand
		// (MBaseV/MIndexV now hold physical register numbers).
		if hadBaseV {
			li.I.M.Base = vx64.Reg(li.I.MBaseV)
			li.I.MBaseV = 0
		}
		if hadIndexV {
			li.I.M.Index = vx64.Reg(li.I.MIndexV)
			li.I.MIndexV = 0
		}
		a.out = append(a.out, *li)
		for _, d := range defStores[:nDefs] {
			st := vx64.STORE64
			rd := d.reg
			inst := vx64.Inst{Op: st, Rs: rd,
				M: vx64.Mem{Base: vx64.RSP, Index: vx64.NoReg, Scale: 1, Disp: int32(-8 * (d.slot + 1))}}
			if d.fp {
				inst = vx64.Inst{Op: vx64.FST, Rs: rd,
					M: vx64.Mem{Base: vx64.RSP, Index: vx64.NoReg, Scale: 1, Disp: int32(-8 * (d.slot + 1))}}
			}
			a.out = append(a.out, LInst{I: inst, Target: noTarget})
		}
	}
	return a.out, stats, nil
}

// appendOperands appends the register operands of an instruction to out, in
// the order Rd, Rs, Rs2, memory base, memory index: the register fields its
// opcode's row names, then the memory operand's virtual registers, which
// are GPR uses.
func appendOperands(out []opnd, li *LInst) []opnd {
	i := &li.I
	row := *i.Op.Info()
	if row.Rd != 0 {
		out = append(out, opnd{&i.Rd, row.Rd})
	}
	if row.Rs != 0 {
		out = append(out, opnd{&i.Rs, row.Rs})
	}
	if row.Rs2 != 0 {
		out = append(out, opnd{&i.Rs2, row.Rs2})
	}
	if row.Form.Mem() {
		if i.MBaseV != 0 {
			out = append(out, opnd{&i.MBaseV, vx64.OpUse})
		}
		if i.MIndexV != 0 {
			out = append(out, opnd{&i.MIndexV, vx64.OpUse})
		}
	}
	return out
}
