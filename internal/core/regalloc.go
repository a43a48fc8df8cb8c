package core

import (
	"fmt"
	"sort"

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

// opnd describes one register operand slot of an instruction.
type opnd struct {
	field *uint16 // pointer to Rd/Rs/Rs2/MBaseV/MIndexV
	fp    bool
	use   bool
	def   bool
}

// operands enumerates the register operands of an instruction, with their
// def/use roles and register class.
func operands(li *LInst) []opnd {
	i := &li.I
	var out []opnd
	add := func(f *uint16, fp, use, def bool) {
		if *f != 0 || def || use {
			out = append(out, opnd{field: f, fp: fp, use: use, def: def})
		}
	}
	switch i.Op {
	case vx64.NOP, vx64.RET, vx64.SYSCALL, vx64.SYSRET, vx64.HLT,
		vx64.TLBFLUSHALL, vx64.JMP, vx64.JCC, vx64.HELPER, vx64.TRAP,
		vx64.PROFCNT:
		// no register operands
	case vx64.MOVrr:
		add(&i.Rd, false, false, true)
		add(&i.Rs, false, true, false)
	case vx64.MOVI8, vx64.MOVI32, vx64.MOVI64, vx64.SETcc, vx64.RDNZCV:
		add(&i.Rd, false, false, true)
	case vx64.CMOVcc:
		add(&i.Rd, false, true, true)
		add(&i.Rs, false, true, false)
	case vx64.LOAD8, vx64.LOAD16, vx64.LOAD32, vx64.LOAD64,
		vx64.LOADS8, vx64.LOADS16, vx64.LOADS32, vx64.LEA:
		add(&i.Rd, false, false, true)
	case vx64.STORE8, vx64.STORE16, vx64.STORE32, vx64.STORE64, vx64.IRQCHK:
		add(&i.Rs, false, true, false)
	case vx64.ADDrr, vx64.SUBrr, vx64.ANDrr, vx64.ORrr, vx64.XORrr,
		vx64.SHLrr, vx64.SHRrr, vx64.SARrr, vx64.MULrr, vx64.UMULH, vx64.SMULH,
		vx64.UDIVrr, vx64.SDIVrr, vx64.UREMrr, vx64.SREMrr:
		add(&i.Rd, false, true, true)
		add(&i.Rs, false, true, false)
	case vx64.ADDri, vx64.SUBri, vx64.ANDri, vx64.ORri, vx64.XORri,
		vx64.SHLri, vx64.SHRri, vx64.SARri:
		add(&i.Rd, false, true, true)
	case vx64.NEGr, vx64.NOTr:
		add(&i.Rd, false, true, true)
	case vx64.CMPrr, vx64.TESTrr:
		add(&i.Rd, false, true, false)
		add(&i.Rs, false, true, false)
	case vx64.CMPri, vx64.TESTri:
		add(&i.Rd, false, true, false)
	case vx64.JMPR, vx64.CALLR, vx64.WRCR3, vx64.INVLPG:
		add(&i.Rd, false, true, false)
	case vx64.RDCR3:
		add(&i.Rd, false, false, true)
	case vx64.INport:
		add(&i.Rd, false, false, true)
	case vx64.OUTport:
		add(&i.Rs, false, true, false)
	case vx64.FLD:
		add(&i.Rd, true, false, true)
	case vx64.FST:
		add(&i.Rs, true, true, false)
	case vx64.FMOVxr:
		add(&i.Rd, true, false, true)
		add(&i.Rs, false, true, false)
	case vx64.FMOVrx:
		add(&i.Rd, false, false, true)
		add(&i.Rs, true, true, false)
	case vx64.FMOVxx, vx64.FSQRT, vx64.FNEG, vx64.FABS:
		add(&i.Rd, true, false, true)
		add(&i.Rs, true, true, false)
	case vx64.FADD, vx64.FSUB, vx64.FMUL, vx64.FDIV, vx64.FMIN, vx64.FMAX:
		add(&i.Rd, true, false, true)
		add(&i.Rs, true, true, false)
		add(&i.Rs2, true, true, false)
	case vx64.FCMP:
		add(&i.Rd, true, true, false)
		add(&i.Rs, true, true, false)
	case vx64.CVTSI2SD, vx64.CVTUI2SD:
		add(&i.Rd, true, false, true)
		add(&i.Rs, false, true, false)
	case vx64.CVTSD2SI, vx64.CVTSD2UI:
		add(&i.Rd, false, false, true)
		add(&i.Rs, true, true, false)
	default:
		panic(fmt.Sprintf("core: operands: unhandled op %v", i.Op))
	}
	// Memory-operand virtual registers are uses.
	switch i.Op {
	case vx64.LOAD8, vx64.LOAD16, vx64.LOAD32, vx64.LOAD64,
		vx64.LOADS8, vx64.LOADS16, vx64.LOADS32, vx64.LEA,
		vx64.STORE8, vx64.STORE16, vx64.STORE32, vx64.STORE64,
		vx64.FLD, vx64.FST, vx64.IRQCHK:
		if i.MBaseV != 0 {
			out = append(out, opnd{field: &i.MBaseV, fp: false, use: true})
		}
		if i.MIndexV != 0 {
			out = append(out, opnd{field: &i.MIndexV, fp: false, use: true})
		}
	}
	return out
}

type vregKey struct {
	id uint16
	fp bool
}

type interval struct {
	key        vregKey
	start, end int
	reg        uint16 // assigned physical register
	slot       int    // spill slot index, -1 when in a register
}

// AllocStats reports allocator work for the JIT statistics.
type AllocStats struct {
	Spilled int
	Dead    int
}

// allocate performs dead-code marking, liveness analysis, linear-scan
// assignment and the rewrite to physical registers. It returns the rewritten
// instruction list (with spill code inserted) and statistics. slotBase is
// the number of spill slots already in use (0).
func allocate(lir []LInst) ([]LInst, AllocStats, error) {
	var stats AllocStats

	// --- dead-code marking (backward, with use counts) ---
	useCount := map[vregKey]int{}
	for idx := range lir {
		for _, o := range operands(&lir[idx]) {
			if *o.field >= firstVreg && o.use {
				useCount[vregKey{*o.field, o.fp}]++
			}
		}
	}
	for idx := len(lir) - 1; idx >= 0; idx-- {
		li := &lir[idx]
		if !li.Pure || li.Target != noTarget {
			continue
		}
		ops := operands(li)
		deadOK := false
		for _, o := range ops {
			if o.def && *o.field >= firstVreg {
				if useCount[vregKey{*o.field, o.fp}] == 0 {
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
				if o.use && *o.field >= firstVreg {
					useCount[vregKey{*o.field, o.fp}]--
				}
			}
		}
	}

	// --- live ranges over non-dead instructions ---
	ranges := map[vregKey]*interval{}
	for idx := range lir {
		if lir[idx].I.Dead {
			continue
		}
		for _, o := range operands(&lir[idx]) {
			if *o.field < firstVreg {
				continue
			}
			k := vregKey{*o.field, o.fp}
			iv, ok := ranges[k]
			if !ok {
				iv = &interval{key: k, start: idx, end: idx, slot: -1}
				ranges[k] = iv
			}
			iv.end = idx
		}
	}

	// --- linear scan ---
	ivs := make([]*interval, 0, len(ranges))
	for _, iv := range ranges {
		ivs = append(ivs, iv)
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].key.id < ivs[j].key.id
	})

	nextSlot := 0
	for _, fp := range []bool{false, true} {
		pool := gprPool
		if fp {
			pool = fprPool
		}
		free := append([]uint16(nil), pool...)
		var active []*interval
		for _, iv := range ivs {
			if iv.key.fp != fp {
				continue
			}
			// Expire.
			keep := active[:0]
			for _, a := range active {
				if a.end < iv.start {
					free = append(free, a.reg)
				} else {
					keep = append(keep, a)
				}
			}
			active = keep
			if len(free) > 0 {
				iv.reg = free[len(free)-1]
				free = free[:len(free)-1]
				active = append(active, iv)
				continue
			}
			// Spill the interval with the farthest end.
			victim := iv
			for _, a := range active {
				if a.end > victim.end {
					victim = a
				}
			}
			if victim == iv {
				iv.slot = nextSlot
				nextSlot++
				stats.Spilled++
				continue
			}
			iv.reg = victim.reg
			victim.slot = nextSlot
			victim.reg = 0
			nextSlot++
			stats.Spilled++
			for i, a := range active {
				if a == victim {
					active[i] = iv
					break
				}
			}
		}
	}

	// --- rewrite ---
	var out []LInst
	for idx := range lir {
		li := lir[idx]
		if li.I.Dead {
			continue
		}
		hadBaseV := li.I.MBaseV != 0
		hadIndexV := li.I.MIndexV != 0
		ops := operands(&li)
		gprS, fprS := 0, 0
		type deferred struct {
			reg  uint16
			slot int
			fp   bool
		}
		var defStores []deferred
		for _, o := range ops {
			if *o.field < firstVreg {
				continue
			}
			k := vregKey{*o.field, o.fp}
			iv := ranges[k]
			if iv == nil {
				return nil, stats, fmt.Errorf("core: vreg %d used without range", *o.field)
			}
			if iv.slot < 0 {
				*o.field = iv.reg
				continue
			}
			// Spilled: shuttle through a reserved register.
			var sh uint16
			if o.fp {
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
			if o.use {
				ld := vx64.LOAD64
				if o.fp {
					ld = vx64.FLD
				}
				out = append(out, LInst{I: vx64.Inst{Op: ld, Rd: sh,
					M: vx64.Mem{Base: vx64.RSP, Index: vx64.NoReg, Scale: 1, Disp: disp}}, Target: noTarget})
			}
			if o.def {
				defStores = append(defStores, deferred{reg: sh, slot: iv.slot, fp: o.fp})
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
		out = append(out, li)
		for _, d := range defStores {
			st := vx64.STORE64
			rd := d.reg
			inst := vx64.Inst{Op: st, Rs: rd,
				M: vx64.Mem{Base: vx64.RSP, Index: vx64.NoReg, Scale: 1, Disp: int32(-8 * (d.slot + 1))}}
			if d.fp {
				inst = vx64.Inst{Op: vx64.FST, Rs: rd,
					M: vx64.Mem{Base: vx64.RSP, Index: vx64.NoReg, Scale: 1, Disp: int32(-8 * (d.slot + 1))}}
			}
			out = append(out, LInst{I: inst, Target: noTarget})
		}
	}
	return out, stats, nil
}
