package ssa

import (
	"fmt"

	"captive/internal/adl"
	"captive/internal/softfloat"
)

// State is the architectural state an interpreted action reads and writes.
// Memory accesses may abort (guest page fault): the implementation records
// the fault and returns ok=false, upon which interpretation stops — the
// instruction is architecturally cancelled, matching the precise-exception
// behaviour both DBT engines implement.
type State interface {
	ReadBank(bank *Bank, idx uint64) uint64
	WriteBank(bank *Bank, idx uint64, val uint64)
	ReadPC() uint64
	WritePC(v uint64)
	MemRead(width uint8, addr uint64) (val uint64, ok bool)
	MemWrite(width uint8, addr uint64, val uint64) bool
	// Intrinsic executes a generic intrinsic and returns its result. ok is
	// false when execution must stop (exception raised, machine halted).
	Intrinsic(id IntrID, args []uint64) (val uint64, ok bool)
}

// Interp executes an action against state, given the decoded instruction's
// field values in format order. It returns false if execution aborted
// (fault or block-ending intrinsic that redirects control).
//
// The same walker doubles as the reference ("golden model") executor used
// by differential tests and by the interpreter engine.
type Interp struct {
	vals []uint64
	set  []bool
	vars map[*Symbol]uint64
}

// NewInterp creates a reusable interpreter.
func NewInterp() *Interp {
	return &Interp{vars: make(map[*Symbol]uint64)}
}

// maxSteps bounds interpretation so that malformed CFGs cannot hang tests.
const maxSteps = 100000

// Run interprets the action. It returns ok=false when the instruction was
// aborted mid-way by a faulting memory access or halting intrinsic.
func (in *Interp) Run(a *Action, fields []uint64, st State) (ok bool, err error) {
	if cap(in.vals) < a.nextStmtID {
		in.vals = make([]uint64, a.nextStmtID)
		in.set = make([]bool, a.nextStmtID)
	}
	in.vals = in.vals[:a.nextStmtID]
	in.set = in.set[:a.nextStmtID]
	clear(in.set)
	clear(in.vars)

	blk := a.Entry
	var prev *Block
	steps := 0
	for {
		var next *Block
		for _, s := range blk.Stmts {
			steps++
			if steps > maxSteps {
				return false, fmt.Errorf("ssa: interpreter step limit exceeded in %s", a.Name)
			}
			switch s.Op {
			case OpConst:
				in.vals[s.ID] = s.Const
			case OpReadField:
				if s.FieldIdx >= len(fields) {
					return false, fmt.Errorf("ssa: %s: missing field %s", a.Name, s.Field)
				}
				in.vals[s.ID] = fields[s.FieldIdx]
			case OpBankRead:
				in.vals[s.ID] = Canonicalize(st.ReadBank(s.Bank, in.vals[s.Args[0].ID]), s.Type)
			case OpBankWrite:
				st.WriteBank(s.Bank, in.vals[s.Args[0].ID], in.vals[s.Args[1].ID])
			case OpVarRead:
				in.vals[s.ID] = in.vars[s.Sym]
			case OpVarWrite:
				in.vars[s.Sym] = in.vals[s.Args[0].ID]
			case OpBinary:
				in.vals[s.ID] = EvalBinary(s.BinOp, s.Args[0].Type, in.vals[s.Args[0].ID], in.vals[s.Args[1].ID])
			case OpUnary:
				in.vals[s.ID] = EvalUnary(s.UnOp, s.Type, in.vals[s.Args[0].ID])
			case OpCast:
				in.vals[s.ID] = EvalCast(in.vals[s.Args[0].ID], s.FromType, s.Type)
			case OpSelect:
				if in.vals[s.Args[0].ID] != 0 {
					in.vals[s.ID] = in.vals[s.Args[1].ID]
				} else {
					in.vals[s.ID] = in.vals[s.Args[2].ID]
				}
			case OpMemRead:
				v, okm := st.MemRead(s.Width, in.vals[s.Args[0].ID])
				if !okm {
					return false, nil
				}
				in.vals[s.ID] = Canonicalize(v, s.Type)
			case OpMemWrite:
				if !st.MemWrite(s.Width, in.vals[s.Args[0].ID], in.vals[s.Args[1].ID]) {
					return false, nil
				}
			case OpReadPC:
				in.vals[s.ID] = st.ReadPC()
			case OpWritePC:
				st.WritePC(in.vals[s.Args[0].ID])
			case OpIntrinsic:
				args := make([]uint64, len(s.Args))
				for i, arg := range s.Args {
					args[i] = in.vals[arg.ID]
				}
				v, oki := st.Intrinsic(s.Intr.ID, args)
				if !oki {
					return false, nil
				}
				in.vals[s.ID] = Canonicalize(v, s.Type)
			case OpPhi:
				v, okp := s.PhiIn[prev]
				if !okp {
					return false, fmt.Errorf("ssa: %s: phi without edge from b_%d", a.Name, prevID(prev))
				}
				in.vals[s.ID] = in.vals[v.ID]
			case OpBranch:
				if in.vals[s.Args[0].ID] != 0 {
					next = s.Targets[0]
				} else {
					next = s.Targets[1]
				}
			case OpJump:
				next = s.Targets[0]
			case OpReturn:
				return true, nil
			}
		}
		if next == nil {
			return false, fmt.Errorf("ssa: %s: block b_%d missing terminator", a.Name, blk.ID)
		}
		prev, blk = blk, next
	}
}

func prevID(b *Block) int {
	if b == nil {
		return -1
	}
	return b.ID
}

// PureIntrinsic evaluates the pure (floating-point/conversion) intrinsics on
// constant arguments with the guest (ARM) semantics. It returns ok=false for
// intrinsics that have side effects or depend on machine state.
func PureIntrinsic(id IntrID, args []uint64) (uint64, bool) {
	sem := softfloat.SemARM
	switch id {
	case IntrFAdd64:
		return softfloat.Add64(args[0], args[1], sem), true
	case IntrFSub64:
		return softfloat.Sub64(args[0], args[1], sem), true
	case IntrFMul64:
		return softfloat.Mul64(args[0], args[1], sem), true
	case IntrFDiv64:
		return softfloat.Div64(args[0], args[1], sem), true
	case IntrFSqrt64:
		return softfloat.Sqrt64(args[0], sem), true
	case IntrFMin64:
		return softfloat.Min64(args[0], args[1], sem), true
	case IntrFMax64:
		return softfloat.Max64(args[0], args[1], sem), true
	case IntrFNeg64:
		return softfloat.Neg64(args[0]), true
	case IntrFAbs64:
		return softfloat.Abs64(args[0]), true
	case IntrFCmpNZCV:
		return uint64(softfloat.Cmp64(args[0], args[1])), true
	case IntrSCvtF64:
		return softfloat.I64ToF64(int64(args[0])), true
	case IntrUCvtF64:
		return softfloat.U64ToF64(args[0]), true
	case IntrFCvtZS64:
		return uint64(softfloat.F64ToI64(args[0], softfloat.SemARM)), true
	case IntrFCvtZU64:
		return softfloat.F64ToU64(args[0]), true
	}
	return 0, false
}

// Fields decodes an instruction word against a format, returning the field
// values in format order (most significant field first), as Interp.Run
// takes them. This is the semantic contract the generated decoder
// implements with a decision tree; the plain version here is the oracle it
// is tested against.
func Fields(f *adl.Format, word uint64) []uint64 {
	out := make([]uint64, len(f.Fields))
	shift := f.TotalBits()
	for i, fl := range f.Fields {
		shift -= fl.Bits
		out[i] = word >> uint(shift) & (1<<uint(fl.Bits) - 1)
	}
	return out
}
