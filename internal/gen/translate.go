package gen

import (
	"fmt"
	"slices"
	"sort"

	"captive/internal/adl"
	"captive/internal/ssa"
)

// Val is an opaque emitter value handle (a node in the Captive engine's
// invocation DAG). NoVal marks "no value".
type Val int32

// NoVal is the absent value.
const NoVal Val = -1

// BlockRef is an opaque emitter basic-block handle.
type BlockRef int32

// LocalRef is an opaque emitter local-variable (virtual register) handle,
// used for DSL variables that stay live across dynamic control flow.
type LocalRef int32

// Emitter is the backend interface generator functions call into at JIT
// time (the emitter object of Fig. 7). The Captive engine implements it with
// an invocation DAG that collapses to low-level IR; tests implement it with
// a recording interpreter.
type Emitter interface {
	Const(ty adl.TypeName, v uint64) Val
	// BankRead/BankWrite with a translation-time-constant register index;
	// the emitter folds the register file offset (Fig. 7's
	// const_u32(256 + 16*insn.a) pattern).
	BankReadFixed(bank *ssa.Bank, idx uint64) Val
	BankWriteFixed(bank *ssa.Bank, idx uint64, val Val)
	// Dynamic-index variants (register number computed at runtime).
	BankRead(bank *ssa.Bank, idx Val) Val
	BankWrite(bank *ssa.Bank, idx Val, val Val)

	Binary(op ssa.BinOp, ty adl.TypeName, a, b Val) Val
	Unary(op ssa.UnOp, ty adl.TypeName, a Val) Val
	Cast(from, to adl.TypeName, a Val) Val
	Select(ty adl.TypeName, cond, t, f Val) Val

	MemRead(width uint8, ty adl.TypeName, addr Val) Val
	MemWrite(width uint8, addr, val Val)

	ReadPC() Val
	WritePC(v Val)
	IncPC(n uint64)

	// Intrinsic's args are valid only during the call.
	Intrinsic(intr *ssa.Intrinsic, args []Val) Val

	NewBlock() BlockRef
	SetBlock(b BlockRef)
	Jump(b BlockRef)
	Branch(cond Val, t, f BlockRef)

	AllocLocal(ty adl.TypeName) LocalRef
	ReadLocal(l LocalRef, ty adl.TypeName) Val
	WriteLocal(l LocalRef, v Val)
}

// peVal is a partially-evaluated value: either a translation-time constant
// (fixed, §2.2.2) or an emitter value.
type peVal struct {
	set   bool // the statement has been translated
	known bool
	c     uint64
	v     Val
}

// varState tracks a DSL variable during partial evaluation.
type varState struct {
	sym   *ssa.Symbol
	ty    adl.TypeName
	known bool
	c     uint64
	v     Val // last dynamic value while still in fixed control flow
	local LocalRef
	mat   bool // materialized into an emitter local
}

// Translator runs generator functions. It keeps its scratch across calls,
// reset rather than reallocated, so each engine (one per hart) owns one; the
// zero value is ready to use.
type Translator struct {
	d  Decoded
	em Emitter
	a  *ssa.Action

	vals []peVal    // indexed by statement ID
	vars []varState // the variables accessed so far, in first-access order
	args []Val      // an intrinsic's arguments

	// Dynamic-region scratch; inRegion, indeg and ebs are indexed by
	// ssa.Block.ID.
	region   []*ssa.Block
	inRegion []bool
	indeg    []int32
	ebs      []BlockRef
	ready    []*ssa.Block
	order    []*ssa.Block
}

// Translate runs the generator function for a decoded instruction: it
// partially evaluates the optimized SSA action, computing fixed statements
// from the instruction fields and emitting dynamic statements through em.
// This is the exact mechanism of Fig. 7, with the offline stage's
// specialization done lazily instead of via generated C++ source.
func (t *Translator) Translate(d Decoded, em Emitter) error {
	t.d, t.em, t.a = d, em, d.Info.Action
	n := t.a.StmtIDBound()
	t.vals = slices.Grow(t.vals[:0], n)[:n]
	clear(t.vals)
	t.vars = t.vars[:0]
	return t.run()
}

func (t *Translator) run() error {
	blk := t.a.Entry
	for {
		next, done, err := t.fixedBlock(blk)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		blk = next
	}
}

// fixedBlock translates a block reached through fixed control flow. It
// returns the next block, or done=true if the action returned or control
// entered (and fully translated) a dynamic region.
func (t *Translator) fixedBlock(b *ssa.Block) (next *ssa.Block, done bool, err error) {
	for _, s := range b.Stmts {
		switch s.Op {
		case ssa.OpBranch:
			cond := t.value(s.Args[0])
			if cond.known {
				if cond.c != 0 {
					return s.Targets[0], false, nil
				}
				return s.Targets[1], false, nil
			}
			// Dynamic branch: translate the region it dominates.
			return nil, true, t.dynamicRegion(s)
		case ssa.OpJump:
			return s.Targets[0], false, nil
		case ssa.OpReturn:
			return nil, true, nil
		default:
			if err := t.stmt(s, false); err != nil {
				return nil, false, err
			}
		}
	}
	return nil, false, fmt.Errorf("gen: %s: block b_%d has no terminator", t.a.Name, b.ID)
}

// dynamicRegion translates everything reachable from a dynamic branch. All
// variables are materialized into emitter locals first, each SSA block gets
// an emitter block, and blocks are translated once in topological order
// (the behaviour DSL has no loops, so the CFG is acyclic).
func (t *Translator) dynamicRegion(br *ssa.Stmt) error {
	cond := t.value(br.Args[0])

	// Collect the region.
	t.region = t.region[:0]
	t.push(br.Targets[0])
	t.push(br.Targets[1])
	for i := 0; i < len(t.region); i++ {
		for _, s := range t.region[i].Succs() {
			t.push(s)
		}
	}

	// Materialize every variable the region accesses.
	for _, sym := range t.a.Symbols {
		if !regionUsesSym(t.region, sym) {
			continue
		}
		t.materialize(t.varState(sym))
	}

	t.topoOrder()
	for _, b := range t.region {
		t.inRegion[b.ID] = false
	}

	for _, b := range t.order {
		t.ebs[b.ID] = t.em.NewBlock()
	}
	exit := t.em.NewBlock()

	t.em.Branch(t.toVal(cond, br.Args[0].Type), t.ebs[br.Targets[0].ID], t.ebs[br.Targets[1].ID])

	for _, b := range t.order {
		t.em.SetBlock(t.ebs[b.ID])
		for _, s := range b.Stmts {
			switch s.Op {
			case ssa.OpBranch:
				c := t.value(s.Args[0])
				if c.known {
					target := s.Targets[1]
					if c.c != 0 {
						target = s.Targets[0]
					}
					t.em.Jump(t.ebs[target.ID])
				} else {
					t.em.Branch(t.toVal(c, s.Args[0].Type), t.ebs[s.Targets[0].ID], t.ebs[s.Targets[1].ID])
				}
			case ssa.OpJump:
				t.em.Jump(t.ebs[s.Targets[0].ID])
			case ssa.OpReturn:
				t.em.Jump(exit)
			default:
				if err := t.stmt(s, true); err != nil {
					return err
				}
			}
		}
	}
	t.em.SetBlock(exit)
	return nil
}

// push adds b to the region being collected, once.
func (t *Translator) push(b *ssa.Block) {
	if n := b.ID + 1; n > len(t.inRegion) {
		t.inRegion = append(t.inRegion, make([]bool, n-len(t.inRegion))...)
		t.indeg = append(t.indeg, make([]int32, n-len(t.indeg))...)
		t.ebs = append(t.ebs, make([]BlockRef, n-len(t.ebs))...)
	}
	if !t.inRegion[b.ID] {
		t.inRegion[b.ID] = true
		t.region = append(t.region, b)
	}
}

func regionUsesSym(region []*ssa.Block, sym *ssa.Symbol) bool {
	for _, b := range region {
		for _, s := range b.Stmts {
			if (s.Op == ssa.OpVarRead || s.Op == ssa.OpVarWrite) && s.Sym == sym {
				return true
			}
		}
	}
	return false
}

// topoOrder orders the region into t.order: Kahn over region-internal
// edges, taking the ready block with the smallest ID first.
func (t *Translator) topoOrder() {
	for _, b := range t.region {
		t.indeg[b.ID] = 0
	}
	for _, b := range t.region {
		for _, s := range b.Succs() {
			if t.inRegion[s.ID] {
				t.indeg[s.ID]++
			}
		}
	}
	// Entries may have region-external predecessors only.
	t.ready = t.ready[:0]
	for _, b := range t.region {
		if t.indeg[b.ID] == 0 {
			t.ready = append(t.ready, b)
		}
	}
	sort.Slice(t.ready, func(i, j int) bool { return t.ready[i].ID < t.ready[j].ID })
	t.order = t.order[:0]
	for len(t.ready) > 0 {
		b := t.ready[0]
		t.ready = append(t.ready[:0], t.ready[1:]...)
		t.order = append(t.order, b)
		for _, s := range b.Succs() {
			if !t.inRegion[s.ID] {
				continue
			}
			t.indeg[s.ID]--
			if t.indeg[s.ID] == 0 {
				t.ready = append(t.ready, s)
				sort.Slice(t.ready, func(i, j int) bool { return t.ready[i].ID < t.ready[j].ID })
			}
		}
	}
	if len(t.order) != len(t.region) {
		// Cycle (should not happen: the DSL has no loops); fall back to
		// block order to avoid an infinite loop — the emitter will still
		// wire branches correctly.
		t.order = append(t.order[:0], t.region...)
		sort.Slice(t.order, func(i, j int) bool { return t.order[i].ID < t.order[j].ID })
	}
}

// materialize moves a variable's current value into an emitter local.
func (t *Translator) materialize(vs *varState) {
	if vs.mat {
		return
	}
	vs.local = t.em.AllocLocal(vs.ty)
	vs.mat = true
	if vs.known {
		t.em.WriteLocal(vs.local, t.em.Const(vs.ty, vs.c))
	} else if vs.v != NoVal {
		t.em.WriteLocal(vs.local, vs.v)
	} else {
		// Never written yet: initialize to zero for determinism.
		t.em.WriteLocal(vs.local, t.em.Const(vs.ty, 0))
	}
}

// varState returns sym's state, adding it on first access. The pointer is
// valid until the next first access of another variable.
func (t *Translator) varState(sym *ssa.Symbol) *varState {
	for i := range t.vars {
		if t.vars[i].sym == sym {
			return &t.vars[i]
		}
	}
	t.vars = append(t.vars, varState{sym: sym, ty: sym.Type, v: NoVal})
	return &t.vars[len(t.vars)-1]
}

// value returns the partially-evaluated value of a statement.
func (t *Translator) value(s *ssa.Stmt) peVal {
	v := t.vals[s.ID]
	if !v.set {
		panic(fmt.Sprintf("gen: %s: use of untranslated statement s_%d (%s)", t.a.Name, s.ID, s))
	}
	return v
}

// toVal lowers a peVal to an emitter value, materializing constants.
func (t *Translator) toVal(v peVal, ty adl.TypeName) Val {
	if v.known {
		return t.em.Const(ty, v.c)
	}
	return v.v
}

// stmt translates one non-terminator statement. In dynamic regions
// (inRegion), variable accesses go through emitter locals.
func (t *Translator) stmt(s *ssa.Stmt, inRegion bool) error {
	em := t.em
	setK := func(c uint64) { t.vals[s.ID] = peVal{set: true, known: true, c: c} }
	setV := func(v Val) { t.vals[s.ID] = peVal{set: true, v: v} }
	argV := func(i int) Val { return t.toVal(t.value(s.Args[i]), s.Args[i].Type) }

	switch s.Op {
	case ssa.OpConst:
		setK(s.Const)
	case ssa.OpReadField:
		setK(t.d.FieldAt(s.FieldIdx))
	case ssa.OpBankRead:
		idx := t.value(s.Args[0])
		if idx.known {
			setV(em.BankReadFixed(s.Bank, idx.c))
		} else {
			setV(em.BankRead(s.Bank, idx.v))
		}
	case ssa.OpBankWrite:
		idx := t.value(s.Args[0])
		val := argV(1)
		if idx.known {
			em.BankWriteFixed(s.Bank, idx.c, val)
		} else {
			em.BankWrite(s.Bank, t.toVal(idx, adl.TypeU64), val)
		}
	case ssa.OpVarRead:
		vs := t.varState(s.Sym)
		switch {
		case inRegion || vs.mat:
			setV(em.ReadLocal(vs.local, vs.ty))
		case vs.known:
			setK(vs.c)
		case vs.v != NoVal:
			setV(vs.v)
		default:
			setK(0)
		}
	case ssa.OpVarWrite:
		vs := t.varState(s.Sym)
		val := t.value(s.Args[0])
		if inRegion || vs.mat {
			t.materialize(vs)
			em.WriteLocal(vs.local, t.toVal(val, vs.ty))
		} else if val.known {
			vs.known, vs.c, vs.v = true, val.c, NoVal
		} else {
			vs.known, vs.v = false, val.v
		}
	case ssa.OpBinary:
		a, b := t.value(s.Args[0]), t.value(s.Args[1])
		if a.known && b.known {
			setK(ssa.EvalBinary(s.BinOp, s.Args[0].Type, a.c, b.c))
		} else {
			setV(em.Binary(s.BinOp, s.Args[0].Type, t.toVal(a, s.Args[0].Type), t.toVal(b, s.Args[1].Type)))
		}
	case ssa.OpUnary:
		a := t.value(s.Args[0])
		if a.known {
			setK(ssa.EvalUnary(s.UnOp, s.Type, a.c))
		} else {
			setV(em.Unary(s.UnOp, s.Type, a.v))
		}
	case ssa.OpCast:
		a := t.value(s.Args[0])
		if a.known {
			setK(ssa.EvalCast(a.c, s.FromType, s.Type))
		} else {
			setV(em.Cast(s.FromType, s.Type, a.v))
		}
	case ssa.OpSelect:
		c := t.value(s.Args[0])
		if c.known {
			if c.c != 0 {
				t.vals[s.ID] = t.value(s.Args[1])
			} else {
				t.vals[s.ID] = t.value(s.Args[2])
			}
		} else {
			setV(em.Select(s.Type, c.v, argV(1), argV(2)))
		}
	case ssa.OpMemRead:
		setV(em.MemRead(s.Width, s.Type, argV(0)))
	case ssa.OpMemWrite:
		em.MemWrite(s.Width, argV(0), argV(1))
	case ssa.OpReadPC:
		setV(em.ReadPC())
	case ssa.OpWritePC:
		em.WritePC(argV(0))
	case ssa.OpIntrinsic:
		t.args = t.args[:0]
		for i := range s.Args {
			t.args = append(t.args, argV(i))
		}
		setV(em.Intrinsic(s.Intr, t.args))
	case ssa.OpPhi:
		return fmt.Errorf("gen: %s: phi survived to translation (O4 phi-elim required)", t.a.Name)
	default:
		return fmt.Errorf("gen: %s: cannot translate %s", t.a.Name, s.Op)
	}
	return nil
}
