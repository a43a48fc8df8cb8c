package ssa

// Fixedness analysis (§2.2.2): every statement is classified as *fixed* —
// evaluable at instruction translation time because it depends only on the
// decoded instruction word — or *dynamic* — part of the instruction's
// runtime behaviour. The generator functions (internal/gen) partially
// evaluate fixed statements at JIT time and emit code only for dynamic ones;
// this is the paper's split-compilation mechanism in action.
//
// Rules:
//   - Const and ReadField are fixed.
//   - BankRead, MemRead, ReadPC, intrinsics and phis are dynamic.
//   - Binary/Unary/Cast/Select are fixed iff all operands are fixed.
//   - A variable is fixed iff every write to it is of a fixed value AND
//     occurs in a fixed-control block; VarRead takes its symbol's fixedness.
//   - A block has fixed control iff all of its predecessors do and no
//     predecessor reaches it through a dynamic branch.
//
// The analysis iterates to a fixed point because variable fixedness and
// statement fixedness are mutually dependent.
func AnalyzeFixedness(a *Action) {
	// Block control-fixedness.
	blockFixed := make(map[*Block]bool, len(a.Blocks))
	for _, b := range a.Blocks {
		blockFixed[b] = true
	}
	// Symbol fixedness starts optimistic (fixed) and is lowered.
	for _, sym := range a.Symbols {
		sym.Fixed = true
	}

	for changed := true; changed; {
		changed = false
		// Statement fixedness under current assumptions.
		for _, b := range a.Blocks {
			for _, s := range b.Stmts {
				f := stmtFixed(s)
				if f != s.Fixed {
					s.Fixed = f
					changed = true
				}
			}
		}
		// Propagate block control fixedness.
		for _, b := range a.Blocks {
			t := b.Terminator()
			if t == nil {
				continue
			}
			srcFixed := blockFixed[b]
			for _, succ := range b.Succs() {
				want := srcFixed
				if t.Op == OpBranch && !t.Args[0].Fixed {
					want = false
				}
				if want == false && blockFixed[succ] {
					blockFixed[succ] = false
					changed = true
				}
			}
		}
		// Lower symbol fixedness.
		for _, b := range a.Blocks {
			for _, s := range b.Stmts {
				if s.Op != OpVarWrite {
					continue
				}
				if (!s.Args[0].Fixed || !blockFixed[b]) && s.Sym.Fixed {
					s.Sym.Fixed = false
					changed = true
				}
			}
		}
	}
}

func stmtFixed(s *Stmt) bool {
	switch s.Op {
	case OpConst, OpReadField:
		return true
	case OpVarRead:
		return s.Sym.Fixed
	case OpBinary, OpUnary, OpCast, OpSelect:
		for _, arg := range s.Args {
			if !arg.Fixed {
				return false
			}
		}
		return true
	default:
		return false
	}
}
