package ssa

import (
	"math/rand"
	"strings"
	"testing"

	"captive/internal/adl"
)

// testADL is a small architecture exercising the interesting behaviour
// shapes: plain arithmetic (the paper's Fig. 3 add), fixed branching on
// instruction fields, dynamic branching on register values, helper inlining,
// memory access and flag computation.
const testADL = `
arch test;
wordsize 64;

bank X    [32] u64;
bank NZCV [1]  u8;

format R { op:8 rd:5 rn:5 rm:5 sh:6 fn:3 }
format I { op:8 rd:5 rn:5 imm:14 }

helper u64 bit(u64 v, u64 n) {
	return (v >> n) & 1;
}

helper void set_nzcv(u64 n, u64 z, u64 c, u64 v) {
	write_flags(0, (u8)((n << 3) | (z << 2) | (c << 1) | v));
}

// Fig. 3 of the paper.
instr add : R when op == 0x01 {
	u64 rn = read_gpr(inst.rn);
	u64 rm = read_gpr(inst.rm);
	u64 rd = rn + rm;
	write_gpr(inst.rd, rd);
}

// Fixed control flow: the taken path is known at translation time.
instr addi : I when op == 0x02 {
	u64 a = read_gpr(inst.rn);
	if (inst.imm == 0) {
		write_gpr(inst.rd, a);
	} else {
		write_gpr(inst.rd, a + inst.imm);
	}
}

// Dynamic control flow: depends on a register value.
instr cmovz : R when op == 0x03 {
	u64 c = read_gpr(inst.rm);
	u64 v = read_gpr(inst.rn);
	if (c == 0) {
		write_gpr(inst.rd, v);
	}
}

// Flag-setting subtract using inlined helpers.
instr subs : R when op == 0x04 {
	u64 a = read_gpr(inst.rn);
	u64 b = read_gpr(inst.rm);
	u64 r = a - b;
	u64 n = bit(r, 63);
	u64 z = r == 0 ? 1 : 0;
	u64 c = a >= b ? 1 : 0;
	u64 v = bit((a ^ b) & (a ^ r), 63);
	set_nzcv(n, z, c, v);
	write_gpr(inst.rd, r);
}

// Memory plus narrow types.
instr ldrb_sx : I when op == 0x05 {
	u64 addr = read_gpr(inst.rn) + inst.imm;
	s8 v = (s8) mem_read_8(addr);
	write_gpr(inst.rd, (u64)(s64) v);
}

// Branch: writes the PC.
instr cbz : I when op == 0x06 {
	u64 v = read_gpr(inst.rn);
	if (v == 0) {
		write_pc(read_pc() + (u64)((s64)(s16)(u16)(inst.imm << 2)));
	} else {
		write_pc(read_pc() + 4);
	}
}

// Dead code and constant folding fodder.
instr deadcode : R when op == 0x07 {
	u64 unused = read_gpr(inst.rn) * 17;
	u64 x = 10;
	u64 y = 20;
	u64 z = x + y;
	if (1 < 2) {
		write_gpr(inst.rd, z + 12);
	} else {
		write_gpr(inst.rd, unused);
	}
	u64 w = 5;
	w = 6;
	write_gpr(0, w);
}
`

func buildTestRegistry(t testing.TB, file *adl.File) *Registry {
	t.Helper()
	reg := NewRegistry()
	reg.AddBank(file.Bank("X"), "gpr")
	reg.AddBank(file.Bank("NZCV"), "flags")
	return reg
}

func mustBuild(t testing.TB, src, name string) (*Action, *Registry) {
	t.Helper()
	file, err := adl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	reg := buildTestRegistry(t, file)
	for _, in := range file.Instrs {
		if in.Name == name {
			a, err := Build(file, in, reg)
			if err != nil {
				t.Fatal(err)
			}
			return a, reg
		}
	}
	t.Fatalf("no instruction %s", name)
	return nil, nil
}

// fakeState is an in-memory State for interpreter tests.
type fakeState struct {
	banks map[string][]uint64
	pc    uint64
	mem   map[uint64]byte
	calls []IntrID
}

func newFakeState() *fakeState {
	return &fakeState{
		banks: map[string][]uint64{"X": make([]uint64, 32), "NZCV": make([]uint64, 1)},
		mem:   make(map[uint64]byte),
	}
}

func (f *fakeState) ReadBank(b *Bank, idx uint64) uint64 { return f.banks[b.Name][idx%32] }
func (f *fakeState) WriteBank(b *Bank, idx uint64, v uint64) {
	f.banks[b.Name][idx%32] = Canonicalize(v, b.Type)
}
func (f *fakeState) ReadPC() uint64   { return f.pc }
func (f *fakeState) WritePC(v uint64) { f.pc = v }
func (f *fakeState) MemRead(w uint8, addr uint64) (uint64, bool) {
	var v uint64
	for i := uint8(0); i < w; i++ {
		v |= uint64(f.mem[addr+uint64(i)]) << (8 * i)
	}
	return v, true
}
func (f *fakeState) MemWrite(w uint8, addr uint64, v uint64) bool {
	for i := uint8(0); i < w; i++ {
		f.mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
	return true
}
func (f *fakeState) Intrinsic(id IntrID, args []uint64) (uint64, bool) {
	f.calls = append(f.calls, id)
	if v, ok := PureIntrinsic(id, args); ok {
		return v, true
	}
	return 0, true
}

func (f *fakeState) clone() *fakeState {
	g := newFakeState()
	for k, v := range f.banks {
		copy(g.banks[k], v)
	}
	g.pc = f.pc
	for k, v := range f.mem {
		g.mem[k] = v
	}
	return g
}

func (f *fakeState) equal(g *fakeState) bool {
	for k := range f.banks {
		for i := range f.banks[k] {
			if f.banks[k][i] != g.banks[k][i] {
				return false
			}
		}
	}
	if f.pc != g.pc {
		return false
	}
	if len(f.mem) != len(g.mem) {
		return false
	}
	for k, v := range f.mem {
		if g.mem[k] != v {
			return false
		}
	}
	return true
}

func TestBuildAddMatchesPaperShape(t *testing.T) {
	a, _ := mustBuild(t, testADL, "add")
	s := a.String()
	// The unoptimized form has explicit read/write of every variable
	// (Fig. 4): struct reads, bankregreads, variable writes.
	for _, want := range []string{"struct inst rn", "bankregread X", "write rd", "binary +", "bankregwrite X"} {
		if !strings.Contains(s, want) {
			t.Errorf("unoptimized add missing %q:\n%s", want, s)
		}
	}
	if a.EndsBlock {
		t.Error("add should not end the block")
	}
	before := a.StmtCount()
	Optimize(a, O4)
	after := a.StmtCount()
	if after >= before {
		t.Errorf("optimization did not shrink add: %d -> %d", before, after)
	}
	// The optimized form (Fig. 6) has no variable reads/writes left.
	s = a.String()
	if strings.Contains(s, " read ") || strings.Contains(s, " write ") {
		t.Errorf("optimized add still has variable accesses:\n%s", s)
	}
	if len(a.Blocks) != 1 {
		t.Errorf("optimized add should be a single block, got %d", len(a.Blocks))
	}
}

func TestOptimizeFoldsFixedBranch(t *testing.T) {
	a, _ := mustBuild(t, testADL, "deadcode")
	Optimize(a, O4)
	s := a.String()
	if strings.Contains(s, "branch") {
		t.Errorf("constant branch not folded:\n%s", s)
	}
	// z+12 = 42 must have been folded to a constant.
	if !strings.Contains(s, "const u64 42") {
		t.Errorf("constant folding missed 42:\n%s", s)
	}
	// The multiply by 17 fed only dead paths and must be gone.
	if strings.Contains(s, "* ") && strings.Contains(s, "17") {
		t.Errorf("dead multiply survived:\n%s", s)
	}
	// Dead first write of w eliminated: only const 6 written to X0.
	if strings.Contains(s, "const u64 5") {
		t.Errorf("dead write of 5 survived:\n%s", s)
	}
}

func TestFixedness(t *testing.T) {
	a, _ := mustBuild(t, testADL, "addi")
	Optimize(a, O4)
	// After O4 the branch on inst.imm is still fixed (field-dependent)
	// unless already folded: all remaining branches must be fixed.
	for _, b := range a.Blocks {
		for _, s := range b.Stmts {
			if s.Op == OpBranch && !s.Args[0].Fixed {
				t.Errorf("branch on instruction field should be fixed: %s", s)
			}
			if s.Op == OpReadField && !s.Fixed {
				t.Error("field read must be fixed")
			}
			if s.Op == OpBankRead && s.Fixed {
				t.Error("register read must be dynamic")
			}
		}
	}

	d, _ := mustBuild(t, testADL, "cmovz")
	Optimize(d, O4)
	dynBranches := 0
	for _, b := range d.Blocks {
		for _, s := range b.Stmts {
			if s.Op == OpBranch && !s.Args[0].Fixed {
				dynBranches++
			}
		}
	}
	if dynBranches == 0 {
		t.Error("cmovz must retain a dynamic branch")
	}
}

func TestEndsBlock(t *testing.T) {
	for name, want := range map[string]bool{
		"add": false, "cbz": true, "subs": false, "ldrb_sx": false,
	} {
		a, _ := mustBuild(t, testADL, name)
		Optimize(a, O4)
		if a.EndsBlock != want {
			t.Errorf("%s EndsBlock = %v, want %v", name, a.EndsBlock, want)
		}
	}
}

func TestInterpAdd(t *testing.T) {
	a, _ := mustBuild(t, testADL, "add")
	st := newFakeState()
	st.banks["X"][1] = 30
	st.banks["X"][2] = 12
	fields := fieldVals(a, map[string]uint64{"op": 1, "rd": 3, "rn": 1, "rm": 2, "sh": 0, "fn": 0})
	ok, err := NewInterp().Run(a, fields, st)
	if err != nil || !ok {
		t.Fatalf("interp: ok=%v err=%v", ok, err)
	}
	if st.banks["X"][3] != 42 {
		t.Errorf("X3 = %d, want 42", st.banks["X"][3])
	}
}

func TestInterpSignExtension(t *testing.T) {
	a, _ := mustBuild(t, testADL, "ldrb_sx")
	st := newFakeState()
	st.banks["X"][1] = 0x1000
	st.mem[0x1004] = 0x80 // -128 as s8
	fields := fieldVals(a, map[string]uint64{"op": 5, "rd": 2, "rn": 1, "imm": 4})
	ok, err := NewInterp().Run(a, fields, st)
	if err != nil || !ok {
		t.Fatalf("interp: ok=%v err=%v", ok, err)
	}
	if got := int64(st.banks["X"][2]); got != -128 {
		t.Errorf("sign extension: X2 = %d, want -128", got)
	}
}

func TestInterpSubsFlags(t *testing.T) {
	a, _ := mustBuild(t, testADL, "subs")
	Optimize(a, O4)
	st := newFakeState()
	st.banks["X"][1] = 5
	st.banks["X"][2] = 7
	fields := fieldVals(a, map[string]uint64{"op": 4, "rd": 3, "rn": 1, "rm": 2, "sh": 0, "fn": 0})
	ok, err := NewInterp().Run(a, fields, st)
	if err != nil || !ok {
		t.Fatalf("interp: ok=%v err=%v", ok, err)
	}
	// 5-7 = -2: N=1 Z=0 C=0 (ARM no-borrow) V=0 -> 0b1000.
	if st.banks["NZCV"][0] != 0b1000 {
		t.Errorf("NZCV = %04b, want 1000", st.banks["NZCV"][0])
	}
	if int64(st.banks["X"][3]) != -2 {
		t.Errorf("X3 = %d", int64(st.banks["X"][3]))
	}
}

// TestOptimizationEquivalence is the central property test: for every
// instruction and every optimization level, the optimized action must be
// observationally equivalent to the unoptimized one on random states.
func TestOptimizationEquivalence(t *testing.T) {
	file, err := adl.Parse(testADL)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12345))
	for _, instr := range file.Instrs {
		for _, level := range []OptLevel{O1, O2, O3, O4} {
			reg := buildTestRegistry(t, file)
			ref, err := Build(file, instr, reg)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := Build(file, instr, reg)
			if err != nil {
				t.Fatal(err)
			}
			Optimize(opt, level)

			format := file.FormatByName(instr.Format)
			for trial := 0; trial < 50; trial++ {
				fields := map[string]uint64{}
				for _, fl := range format.Fields {
					fields[fl.Name] = rng.Uint64() & (1<<uint(fl.Bits) - 1)
				}
				st1 := newFakeState()
				for i := range st1.banks["X"] {
					st1.banks["X"][i] = rng.Uint64() >> (rng.Intn(4) * 16)
				}
				st1.pc = rng.Uint64() &^ 3
				for a := uint64(0); a < 64; a++ {
					st1.mem[st1.banks["X"][instr_rnGuess(fields)]+a] = byte(rng.Intn(256))
					st1.mem[st1.banks["X"][instr_rnGuess(fields)]-a] = byte(rng.Intn(256))
				}
				st2 := st1.clone()

				ok1, err1 := NewInterp().Run(ref, fieldVals(ref, fields), st1)
				ok2, err2 := NewInterp().Run(opt, fieldVals(opt, fields), st2)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s O%d: interp errors %v / %v", instr.Name, level, err1, err2)
				}
				if ok1 != ok2 || !st1.equal(st2) {
					t.Fatalf("%s at O%d diverges from unoptimized (trial %d)\nref:\n%s\nopt:\n%s",
						instr.Name, level, trial, ref, opt)
				}
			}
		}
	}
}

// fieldVals orders named field values by a's format, as Interp.Run takes
// them; an absent name reads 0.
func fieldVals(a *Action, named map[string]uint64) []uint64 {
	vals := make([]uint64, len(a.Format.Fields))
	for i, fl := range a.Format.Fields {
		vals[i] = named[fl.Name]
	}
	return vals
}

func instr_rnGuess(fields map[string]uint64) uint64 {
	if rn, ok := fields["rn"]; ok {
		return rn % 32
	}
	return 0
}

func TestFieldsDecoding(t *testing.T) {
	file, _ := adl.Parse(testADL)
	r := file.FormatByName("R")
	// op:8 rd:5 rn:5 rm:5 sh:6 fn:3 over 32 bits.
	word := uint64(0xAB)<<24 | 0x1F<<19 | 0x03<<14 | 0x07<<9 | 0x15<<3 | 0x5
	f := Fields(r, word)
	want := map[string]uint64{"op": 0xAB, "rd": 0x1F, "rn": 3, "rm": 7, "sh": 0x15, "fn": 5}
	for k, v := range want {
		if got := f[r.FieldIndex(k)]; got != v {
			t.Errorf("field %s = %#x, want %#x", k, got, v)
		}
	}
}

func TestStmtCountReduction(t *testing.T) {
	// §3.6.1: O4 must reduce generated statements substantially vs O1.
	file, _ := adl.Parse(testADL)
	reg := buildTestRegistry(t, file)
	var o1, o4 int
	for _, instr := range file.Instrs {
		a1, err := Build(file, instr, reg)
		if err != nil {
			t.Fatal(err)
		}
		Optimize(a1, O1)
		o1 += a1.StmtCount()
		a4, err := Build(file, instr, reg)
		if err != nil {
			t.Fatal(err)
		}
		Optimize(a4, O4)
		o4 += a4.StmtCount()
	}
	if o4 >= o1 {
		t.Errorf("O4 (%d stmts) should be smaller than O1 (%d stmts)", o4, o1)
	}
	t.Logf("O1: %d statements, O4: %d statements (%.0f%% reduction)",
		o1, o4, 100*(1-float64(o4)/float64(o1)))
}

func TestCanonicalize(t *testing.T) {
	cases := []struct {
		v    uint64
		ty   adl.TypeName
		want uint64
	}{
		{0x1FF, adl.TypeU8, 0xFF},
		{0x80, adl.TypeS8, 0xFFFFFFFFFFFFFF80},
		{0x7F, adl.TypeS8, 0x7F},
		{0xFFFF, adl.TypeU16, 0xFFFF},
		{0x8000, adl.TypeS16, 0xFFFFFFFFFFFF8000},
		{3, adl.TypeU1, 1},
		{^uint64(0), adl.TypeU64, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Canonicalize(c.v, c.ty); got != c.want {
			t.Errorf("Canonicalize(%#x, %s) = %#x, want %#x", c.v, c.ty, got, c.want)
		}
	}
}

func TestEvalBinaryDivisionARMSemantics(t *testing.T) {
	if EvalBinary(BinDivU, adl.TypeU64, 5, 0) != 0 {
		t.Error("unsigned division by zero should yield 0 (ARM SDIV/UDIV)")
	}
	minInt64 := uint64(1) << 63
	if EvalBinary(BinDivS, adl.TypeS64, minInt64, ^uint64(0)) != minInt64 {
		t.Error("MinInt64 / -1 should yield MinInt64")
	}
	if EvalBinary(BinRemS, adl.TypeS64, 7, ^uint64(0)-2) != 1 {
		t.Errorf("7 %% -3 = %d, want 1", int64(EvalBinary(BinRemS, adl.TypeS64, 7, ^uint64(0)-2)))
	}
}
