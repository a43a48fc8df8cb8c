package ssa

import (
	"fmt"

	"captive/internal/adl"
)

// Registry holds the intrinsics and register banks available to behaviours
// of one architecture model. Guest models construct a registry, add their
// bank accessors and any architecture-specific intrinsics, then build
// actions against it.
type Registry struct {
	intrinsics map[string]*Intrinsic
	banks      map[string]*Bank
	BankList   []*Bank
}

// NewRegistry creates a registry pre-populated with the generic intrinsics
// (memory, PC, floating point, system behaviours).
func NewRegistry() *Registry {
	r := &Registry{
		intrinsics: make(map[string]*Intrinsic),
		banks:      make(map[string]*Bank),
	}
	u64 := adl.TypeU64
	s64 := adl.TypeS64
	add := func(name string, id IntrID, res adl.TypeName, side, ends bool, params ...adl.TypeName) {
		r.intrinsics[name] = &Intrinsic{
			Name: name, ID: id, Params: params, Result: res,
			SideEffect: side, EndsBlock: ends,
		}
	}
	// Floating point (guest ARM semantics; pure).
	add("fadd64", IntrFAdd64, u64, false, false, u64, u64)
	add("fsub64", IntrFSub64, u64, false, false, u64, u64)
	add("fmul64", IntrFMul64, u64, false, false, u64, u64)
	add("fdiv64", IntrFDiv64, u64, false, false, u64, u64)
	add("fsqrt64", IntrFSqrt64, u64, false, false, u64)
	add("fmin64", IntrFMin64, u64, false, false, u64, u64)
	add("fmax64", IntrFMax64, u64, false, false, u64, u64)
	add("fneg64", IntrFNeg64, u64, false, false, u64)
	add("fabs64", IntrFAbs64, u64, false, false, u64)
	add("fcmp_nzcv", IntrFCmpNZCV, u64, false, false, u64, u64)
	add("scvtf64", IntrSCvtF64, u64, false, false, s64)
	add("ucvtf64", IntrUCvtF64, u64, false, false, u64)
	add("fcvtzs64", IntrFCvtZS64, s64, false, false, u64)
	add("fcvtzu64", IntrFCvtZU64, u64, false, false, u64)
	// System behaviours.
	add("read_sys", IntrSysRead, u64, true, false, u64)
	add("write_sys", IntrSysWrite, adl.TypeVoid, true, true, u64, u64)
	add("svc", IntrSVC, adl.TypeVoid, true, true, u64)
	add("brk", IntrBRK, adl.TypeVoid, true, true, u64)
	add("eret", IntrERet, adl.TypeVoid, true, true)
	add("tlbi_all", IntrTLBIAll, adl.TypeVoid, true, true)
	add("hlt", IntrHlt, adl.TypeVoid, true, true, u64)
	add("wfi", IntrWFI, adl.TypeVoid, true, true)
	return r
}

// AddBank registers a bank and, when accessor is non-empty, generates
// read_<accessor>/write_<accessor> intrinsics for it.
func (r *Registry) AddBank(b *adl.Bank, accessor string) *Bank {
	bank := &Bank{Name: b.Name, Count: b.Count, Type: b.Type}
	r.banks[b.Name] = bank
	r.BankList = append(r.BankList, bank)
	if accessor != "" {
		r.intrinsics["read_"+accessor] = &Intrinsic{
			Name: "read_" + accessor, Params: []adl.TypeName{adl.TypeU64},
			Result: b.Type, bankName: b.Name, bankOp: OpBankRead,
		}
		r.intrinsics["write_"+accessor] = &Intrinsic{
			Name: "write_" + accessor, Params: []adl.TypeName{adl.TypeU64, b.Type},
			Result: adl.TypeVoid, SideEffect: true,
			bankName: b.Name, bankOp: OpBankWrite,
		}
	}
	return bank
}

// Bank returns the named bank.
func (r *Registry) Bank(name string) *Bank { return r.banks[name] }

// Intrinsic returns the named intrinsic, or nil.
func (r *Registry) Intrinsic(name string) *Intrinsic { return r.intrinsics[name] }

// memIntrinsics maps the memory-access DSL functions to widths.
var memIntrinsics = map[string]struct {
	width uint8
	write bool
	ty    adl.TypeName
}{
	"mem_read_8":   {1, false, adl.TypeU8},
	"mem_read_16":  {2, false, adl.TypeU16},
	"mem_read_32":  {4, false, adl.TypeU32},
	"mem_read_64":  {8, false, adl.TypeU64},
	"mem_write_8":  {1, true, adl.TypeU8},
	"mem_write_16": {2, true, adl.TypeU16},
	"mem_write_32": {4, true, adl.TypeU32},
	"mem_write_64": {8, true, adl.TypeU64},
}

// builder lowers one instruction behaviour to SSA.
type builder struct {
	file    *adl.File
	reg     *Registry
	action  *Action
	cur     *Block
	exit    *Block
	vars    map[string]*Symbol
	inlines int // recursion guard for helper inlining
}

// Build lowers an instruction's behaviour into an unoptimized Action — the
// direct translation of Fig. 4: every variable access becomes an explicit
// read/write statement.
func Build(file *adl.File, instr *adl.Instr, reg *Registry) (*Action, error) {
	format := file.FormatByName(instr.Format)
	if format == nil {
		return nil, adl.Errorf(instr.Pos, "instr %s: unknown format %s", instr.Name, instr.Format)
	}
	a := &Action{Name: instr.Name, Format: format, Instr: instr}
	b := &builder{
		file: file, reg: reg, action: a,
		vars: make(map[string]*Symbol),
	}
	a.Entry = a.NewBlock()
	b.cur = a.Entry
	b.exit = a.NewBlock()
	if err := b.stmt(instr.Body); err != nil {
		return nil, err
	}
	if b.cur.Terminator() == nil {
		b.jump(b.exit)
	}
	a.NewStmt(b.exit, OpReturn, adl.TypeVoid)
	// Move the exit block to the end for readability.
	for i, blk := range a.Blocks {
		if blk == b.exit {
			a.Blocks = append(append(a.Blocks[:i], a.Blocks[i+1:]...), b.exit)
			break
		}
	}
	a.EndsBlock, a.WritesPC = computeEndsBlock(a)
	return a, nil
}

// computeEndsBlock reports whether any statement can redirect control
// (writes the PC or raises an exception) and whether the behaviour writes
// the PC itself.
func computeEndsBlock(a *Action) (ends, writesPC bool) {
	for _, blk := range a.Blocks {
		for _, s := range blk.Stmts {
			if s.Op == OpWritePC {
				ends, writesPC = true, true
			}
			if s.Op == OpIntrinsic && s.Intr.EndsBlock {
				ends = true
			}
		}
	}
	return ends, writesPC
}

func (b *builder) jump(target *Block) {
	b.action.NewStmt(b.cur, OpJump, adl.TypeVoid).Targets[0] = target
}

func (b *builder) stmt(s adl.Stmt) error {
	switch st := s.(type) {
	case *adl.BlockStmt:
		for _, inner := range st.Stmts {
			if b.cur.Terminator() != nil {
				// Unreachable trailing code; cut it off.
				return nil
			}
			if err := b.stmt(inner); err != nil {
				return err
			}
		}
		return nil
	case *adl.VarDeclStmt:
		if _, exists := b.vars[st.Name]; exists {
			return adl.Errorf(st.Pos, "variable %s redeclared", st.Name)
		}
		sym := &Symbol{Name: st.Name, Type: st.Type}
		b.vars[st.Name] = sym
		b.action.Symbols = append(b.action.Symbols, sym)
		if st.Init != nil {
			v, err := b.expr(st.Init)
			if err != nil {
				return err
			}
			v = b.convert(v, sym.Type)
			w := b.action.NewStmt(b.cur, OpVarWrite, adl.TypeVoid, v)
			w.Sym = sym
		}
		return nil
	case *adl.AssignStmt:
		sym, ok := b.vars[st.Name]
		if !ok {
			return adl.Errorf(st.Pos, "assignment to undeclared variable %s", st.Name)
		}
		v, err := b.expr(st.Val)
		if err != nil {
			return err
		}
		v = b.convert(v, sym.Type)
		w := b.action.NewStmt(b.cur, OpVarWrite, adl.TypeVoid, v)
		w.Sym = sym
		return nil
	case *adl.IfStmt:
		cond, err := b.condExpr(st.Cond)
		if err != nil {
			return err
		}
		thenB := b.action.NewBlock()
		joinB := b.action.NewBlock()
		elseB := joinB
		if st.Else != nil {
			elseB = b.action.NewBlock()
		}
		br := b.action.NewStmt(b.cur, OpBranch, adl.TypeVoid, cond)
		br.Targets[0], br.Targets[1] = thenB, elseB

		b.cur = thenB
		if err := b.stmt(st.Then); err != nil {
			return err
		}
		if b.cur.Terminator() == nil {
			b.jump(joinB)
		}
		if st.Else != nil {
			b.cur = elseB
			if err := b.stmt(st.Else); err != nil {
				return err
			}
			if b.cur.Terminator() == nil {
				b.jump(joinB)
			}
		}
		b.cur = joinB
		return nil
	case *adl.ReturnStmt:
		if st.Val != nil {
			return adl.Errorf(st.Pos, "instruction behaviours return no value")
		}
		b.jump(b.exit)
		return nil
	case *adl.ExprStmt:
		_, err := b.expr(st.X)
		return err
	}
	return fmt.Errorf("ssa: unknown statement %T", s)
}

// condExpr evaluates an expression for use as a branch condition, coercing
// integers to u1 via != 0.
func (b *builder) condExpr(e adl.Expr) (*Stmt, error) {
	v, err := b.expr(e)
	if err != nil {
		return nil, err
	}
	return b.toBool(v), nil
}

func (b *builder) toBool(v *Stmt) *Stmt {
	if v.Type == adl.TypeU1 {
		return v
	}
	zero := b.constStmt(0, v.Type)
	cmp := b.action.NewStmt(b.cur, OpBinary, adl.TypeU1, v, zero)
	cmp.BinOp = BinCmpNE
	return cmp
}

func (b *builder) constStmt(v uint64, ty adl.TypeName) *Stmt {
	s := b.action.NewStmt(b.cur, OpConst, ty)
	s.Const = Canonicalize(v, ty)
	return s
}

// convert inserts a cast if v is not already of type ty.
func (b *builder) convert(v *Stmt, ty adl.TypeName) *Stmt {
	if v.Type == ty {
		return v
	}
	c := b.action.NewStmt(b.cur, OpCast, ty, v)
	c.FromType = v.Type
	return c
}

// promote applies the usual arithmetic conversions: the wider type wins;
// at equal widths unsigned wins; u1 promotes to the other operand.
func promoteTypes(a, c adl.TypeName) adl.TypeName {
	if a == c {
		return a
	}
	if a == adl.TypeU1 {
		return c
	}
	if c == adl.TypeU1 {
		return a
	}
	ab, cb := a.Bits(), c.Bits()
	switch {
	case ab > cb:
		return a
	case cb > ab:
		return c
	case !a.Signed():
		return a
	default:
		return c
	}
}

func (b *builder) expr(e adl.Expr) (*Stmt, error) {
	switch ex := e.(type) {
	case *adl.NumberExpr:
		return b.constStmt(ex.Val, adl.TypeU64), nil
	case *adl.IdentExpr:
		sym, ok := b.vars[ex.Name]
		if !ok {
			return nil, adl.Errorf(ex.Pos, "undeclared variable %s", ex.Name)
		}
		r := b.action.NewStmt(b.cur, OpVarRead, sym.Type)
		r.Sym = sym
		return r, nil
	case *adl.FieldExpr:
		idx := b.action.Format.FieldIndex(ex.Field)
		if idx < 0 {
			return nil, adl.Errorf(ex.Pos, "format %s has no field %s", b.action.Format.Name, ex.Field)
		}
		s := b.action.NewStmt(b.cur, OpReadField, adl.TypeU64)
		s.Field, s.FieldIdx = ex.Field, idx
		return s, nil
	case *adl.UnaryExpr:
		x, err := b.expr(ex.X)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case adl.MINUS:
			s := b.action.NewStmt(b.cur, OpUnary, x.Type, x)
			s.UnOp = UnNeg
			return s, nil
		case adl.TILDE:
			s := b.action.NewStmt(b.cur, OpUnary, x.Type, x)
			s.UnOp = UnNot
			return s, nil
		case adl.BANG:
			v := b.toBool(x)
			zero := b.constStmt(0, adl.TypeU1)
			s := b.action.NewStmt(b.cur, OpBinary, adl.TypeU1, v, zero)
			s.BinOp = BinCmpEQ
			return s, nil
		}
		return nil, adl.Errorf(ex.Pos, "bad unary operator")
	case *adl.BinaryExpr:
		return b.binary(ex)
	case *adl.CondExpr:
		cond, err := b.condExpr(ex.Cond)
		if err != nil {
			return nil, err
		}
		then, err := b.expr(ex.Then)
		if err != nil {
			return nil, err
		}
		els, err := b.expr(ex.Else)
		if err != nil {
			return nil, err
		}
		ty := promoteTypes(then.Type, els.Type)
		then = b.convert(then, ty)
		els = b.convert(els, ty)
		return b.action.NewStmt(b.cur, OpSelect, ty, cond, then, els), nil
	case *adl.CastExpr:
		x, err := b.expr(ex.X)
		if err != nil {
			return nil, err
		}
		return b.convert(x, ex.Type), nil
	case *adl.CallExpr:
		return b.call(ex)
	}
	return nil, fmt.Errorf("ssa: unknown expression %T", e)
}

var binOpMap = map[adl.Kind]struct{ u, s BinOp }{
	adl.PLUS:    {BinAdd, BinAdd},
	adl.MINUS:   {BinSub, BinSub},
	adl.STAR:    {BinMul, BinMul},
	adl.SLASH:   {BinDivU, BinDivS},
	adl.PERCENT: {BinRemU, BinRemS},
	adl.AMP:     {BinAnd, BinAnd},
	adl.PIPE:    {BinOr, BinOr},
	adl.CARET:   {BinXor, BinXor},
	adl.EQ:      {BinCmpEQ, BinCmpEQ},
	adl.NE:      {BinCmpNE, BinCmpNE},
	adl.LT:      {BinCmpLTu, BinCmpLTs},
	adl.LE:      {BinCmpLEu, BinCmpLEs},
	adl.GT:      {BinCmpGTu, BinCmpGTs},
	adl.GE:      {BinCmpGEu, BinCmpGEs},
}

func (b *builder) binary(ex *adl.BinaryExpr) (*Stmt, error) {
	l, err := b.expr(ex.L)
	if err != nil {
		return nil, err
	}
	r, err := b.expr(ex.R)
	if err != nil {
		return nil, err
	}
	switch ex.Op {
	case adl.ANDAND, adl.OROR:
		// Non-short-circuit boolean operators: the DSL is side-effect free
		// in conditions by convention (documented deviation from C).
		lb, rb := b.toBool(l), b.toBool(r)
		s := b.action.NewStmt(b.cur, OpBinary, adl.TypeU1, lb, rb)
		if ex.Op == adl.ANDAND {
			s.BinOp = BinAnd
		} else {
			s.BinOp = BinOr
		}
		return s, nil
	case adl.SHL, adl.SHR:
		// Shift result takes the left operand's type.
		r = b.convert(r, adl.TypeU64)
		s := b.action.NewStmt(b.cur, OpBinary, l.Type, l, r)
		if ex.Op == adl.SHL {
			s.BinOp = BinShl
		} else if l.Type.Signed() {
			s.BinOp = BinShrS
		} else {
			s.BinOp = BinShrU
		}
		return s, nil
	}
	ops, ok := binOpMap[ex.Op]
	if !ok {
		return nil, adl.Errorf(ex.Pos, "bad binary operator %s", ex.Op)
	}
	ty := promoteTypes(l.Type, r.Type)
	l = b.convert(l, ty)
	r = b.convert(r, ty)
	op := ops.u
	if ty.Signed() {
		op = ops.s
	}
	resTy := ty
	if op.IsCompare() {
		resTy = adl.TypeU1
	}
	s := b.action.NewStmt(b.cur, OpBinary, resTy, l, r)
	s.BinOp = op
	return s, nil
}

func (b *builder) call(ex *adl.CallExpr) (*Stmt, error) {
	// ADL helper? Inline it (the paper's Inlining pass runs during the
	// offline stage; we perform it during lowering, before the other
	// passes clean up the result).
	if h := b.file.HelperByName(ex.Name); h != nil {
		return b.inlineHelper(ex, h)
	}
	intr := b.reg.Intrinsic(ex.Name)
	if m, ok := memIntrinsics[ex.Name]; ok {
		return b.memAccess(ex, m.width, m.write, m.ty)
	}
	switch ex.Name {
	case "read_pc":
		if len(ex.Args) != 0 {
			return nil, adl.Errorf(ex.Pos, "read_pc takes no arguments")
		}
		return b.action.NewStmt(b.cur, OpReadPC, adl.TypeU64), nil
	case "write_pc":
		if len(ex.Args) != 1 {
			return nil, adl.Errorf(ex.Pos, "write_pc takes one argument")
		}
		v, err := b.expr(ex.Args[0])
		if err != nil {
			return nil, err
		}
		v = b.convert(v, adl.TypeU64)
		return b.action.NewStmt(b.cur, OpWritePC, adl.TypeVoid, v), nil
	}
	if intr == nil {
		return nil, adl.Errorf(ex.Pos, "unknown function %s", ex.Name)
	}
	if len(ex.Args) != len(intr.Params) {
		return nil, adl.Errorf(ex.Pos, "%s expects %d arguments, got %d", ex.Name, len(intr.Params), len(ex.Args))
	}
	args := make([]*Stmt, len(ex.Args))
	for i, ae := range ex.Args {
		v, err := b.expr(ae)
		if err != nil {
			return nil, err
		}
		args[i] = b.convert(v, intr.Params[i])
	}
	// Bank accessors lower directly.
	if intr.bankName != "" {
		bank := b.reg.Bank(intr.bankName)
		if intr.bankOp == OpBankRead {
			s := b.action.NewStmt(b.cur, OpBankRead, intr.Result, args[0])
			s.Bank = bank
			return s, nil
		}
		s := b.action.NewStmt(b.cur, OpBankWrite, adl.TypeVoid, args[0], args[1])
		s.Bank = bank
		return s, nil
	}
	s := b.action.NewStmt(b.cur, OpIntrinsic, intr.Result, args...)
	s.Intr = intr
	return s, nil
}

func (b *builder) memAccess(ex *adl.CallExpr, width uint8, write bool, ty adl.TypeName) (*Stmt, error) {
	want := 1
	if write {
		want = 2
	}
	if len(ex.Args) != want {
		return nil, adl.Errorf(ex.Pos, "%s expects %d arguments", ex.Name, want)
	}
	addr, err := b.expr(ex.Args[0])
	if err != nil {
		return nil, err
	}
	addr = b.convert(addr, adl.TypeU64)
	if !write {
		s := b.action.NewStmt(b.cur, OpMemRead, ty, addr)
		s.Width = width
		return s, nil
	}
	val, err := b.expr(ex.Args[1])
	if err != nil {
		return nil, err
	}
	val = b.convert(val, ty)
	s := b.action.NewStmt(b.cur, OpMemWrite, adl.TypeVoid, addr, val)
	s.Width = width
	return s, nil
}

// inlineHelper expands a helper call in place: parameters become fresh
// locals initialized with the argument values; return statements assign the
// result local and jump to a continuation block.
func (b *builder) inlineHelper(ex *adl.CallExpr, h *adl.Helper) (*Stmt, error) {
	if b.inlines > 32 {
		return nil, adl.Errorf(ex.Pos, "helper inlining too deep (recursive helper %s?)", h.Name)
	}
	if len(ex.Args) != len(h.Params) {
		return nil, adl.Errorf(ex.Pos, "%s expects %d arguments, got %d", h.Name, len(h.Params), len(ex.Args))
	}
	b.inlines++
	defer func() { b.inlines-- }()

	// Evaluate arguments in the caller scope, then bind them to fresh
	// parameter symbols visible only inside the helper body.
	args := make([]*Stmt, len(ex.Args))
	for i, ae := range ex.Args {
		v, err := b.expr(ae)
		if err != nil {
			return nil, err
		}
		args[i] = b.convert(v, h.Params[i].Type)
	}
	uniq := b.action.nextStmtID
	saved := b.vars
	helperVars := make(map[string]*Symbol)
	for i, p := range h.Params {
		sym := &Symbol{Name: fmt.Sprintf("%s_%s_%d", h.Name, p.Name, uniq), Type: p.Type}
		b.action.Symbols = append(b.action.Symbols, sym)
		helperVars[p.Name] = sym
		w := b.action.NewStmt(b.cur, OpVarWrite, adl.TypeVoid, args[i])
		w.Sym = sym
	}

	var resultSym *Symbol
	if h.Result != adl.TypeVoid {
		resultSym = &Symbol{Name: fmt.Sprintf("%s_ret_%d", h.Name, uniq), Type: h.Result}
		b.action.Symbols = append(b.action.Symbols, resultSym)
	}
	cont := b.action.NewBlock()

	// Build the body with return redirected.
	ib := &inlineBuilder{builder: b, resultSym: resultSym, cont: cont}
	b.vars = helperVars
	if err := ib.stmtInline(h.Body); err != nil {
		return nil, err
	}
	if b.cur.Terminator() == nil {
		b.jump(cont)
	}
	b.cur = cont
	b.vars = saved

	if resultSym == nil {
		// Void helpers produce a dummy zero value.
		return b.constStmt(0, adl.TypeU64), nil
	}
	r := b.action.NewStmt(b.cur, OpVarRead, resultSym.Type)
	r.Sym = resultSym
	return r, nil
}

// inlineBuilder redirects return statements inside an inlined helper body.
type inlineBuilder struct {
	*builder
	resultSym *Symbol
	cont      *Block
}

func (ib *inlineBuilder) stmtInline(s adl.Stmt) error {
	switch st := s.(type) {
	case *adl.ReturnStmt:
		if st.Val != nil {
			if ib.resultSym == nil {
				return adl.Errorf(st.Pos, "void helper returns a value")
			}
			v, err := ib.expr(st.Val)
			if err != nil {
				return err
			}
			v = ib.convert(v, ib.resultSym.Type)
			w := ib.action.NewStmt(ib.cur, OpVarWrite, adl.TypeVoid, v)
			w.Sym = ib.resultSym
		} else if ib.resultSym != nil {
			return adl.Errorf(st.Pos, "helper must return a value")
		}
		ib.jump(ib.cont)
		return nil
	case *adl.BlockStmt:
		for _, inner := range st.Stmts {
			if ib.cur.Terminator() != nil {
				return nil
			}
			if err := ib.stmtInline(inner); err != nil {
				return err
			}
		}
		return nil
	case *adl.IfStmt:
		cond, err := ib.condExpr(st.Cond)
		if err != nil {
			return err
		}
		thenB := ib.action.NewBlock()
		joinB := ib.action.NewBlock()
		elseB := joinB
		if st.Else != nil {
			elseB = ib.action.NewBlock()
		}
		br := ib.action.NewStmt(ib.cur, OpBranch, adl.TypeVoid, cond)
		br.Targets[0], br.Targets[1] = thenB, elseB
		ib.cur = thenB
		if err := ib.stmtInline(st.Then); err != nil {
			return err
		}
		if ib.cur.Terminator() == nil {
			ib.jump(joinB)
		}
		if st.Else != nil {
			ib.cur = elseB
			if err := ib.stmtInline(st.Else); err != nil {
				return err
			}
			if ib.cur.Terminator() == nil {
				ib.jump(joinB)
			}
		}
		ib.cur = joinB
		return nil
	default:
		return ib.stmt(s)
	}
}
