package gen

import (
	"math/rand"
	"testing"

	"captive/internal/adl"
	"captive/internal/ssa"
)

const testADL = `
arch test;
wordsize 64;

bank X    [32] u64;
bank NZCV [1]  u8;

format R { op:8 rd:5 rn:5 rm:5 sh:6 fn:3 }
format I { op:8 rd:5 rn:5 imm:14 }

helper u64 bit(u64 v, u64 n) { return (v >> n) & 1; }

instr add : R when op == 0x01 && fn == 0 {
	write_gpr(inst.rd, read_gpr(inst.rn) + read_gpr(inst.rm));
}
instr sub : R when op == 0x01 && fn == 1 {
	write_gpr(inst.rd, read_gpr(inst.rn) - read_gpr(inst.rm));
}
instr addi : I when op == 0x02 {
	u64 a = read_gpr(inst.rn);
	if (inst.imm == 0) { write_gpr(inst.rd, a); }
	else { write_gpr(inst.rd, a + inst.imm); }
}
instr addi_nz : I when op == 0x03 && rd != 0 {
	write_gpr(inst.rd, read_gpr(inst.rn) + inst.imm);
}
instr cmovz : R when op == 0x04 {
	u64 c = read_gpr(inst.rm);
	if (c == 0) { write_gpr(inst.rd, read_gpr(inst.rn)); }
	else { write_gpr(inst.rd, read_gpr(inst.rd) + 1); }
}
instr subs : R when op == 0x05 {
	u64 a = read_gpr(inst.rn);
	u64 b = read_gpr(inst.rm);
	u64 r = a - b;
	u64 flags = (bit(r,63) << 3) | ((r == 0 ? 1 : 0) << 2) | ((a >= b ? 1 : 0) << 1) | bit((a^b)&(a^r),63);
	write_flags(0, (u8)flags);
	write_gpr(inst.rd, r);
}
instr ldr : I when op == 0x06 {
	write_gpr(inst.rd, mem_read_64(read_gpr(inst.rn) + (inst.imm << 3)));
}
instr str : I when op == 0x07 {
	mem_write_64(read_gpr(inst.rn) + (inst.imm << 3), read_gpr(inst.rd));
}
instr cbz : I when op == 0x08 {
	if (read_gpr(inst.rn) == 0) { write_pc(read_pc() + (inst.imm << 2)); }
	else { write_pc(read_pc() + 4); }
}
instr fmul : R when op == 0x09 {
	write_gpr(inst.rd, fmul64(read_gpr(inst.rn), read_gpr(inst.rm)));
}
`

func buildModule(t testing.TB, level ssa.OptLevel) *Module {
	t.Helper()
	file, err := adl.Parse(testADL)
	if err != nil {
		t.Fatal(err)
	}
	reg := ssa.NewRegistry()
	reg.AddBank(file.Bank("X"), "gpr")
	reg.AddBank(file.Bank("NZCV"), "flags")
	m, err := Build(file, reg, level)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func encodeR(op, rd, rn, rm, sh, fn uint64) uint64 {
	return op<<24 | rd<<19 | rn<<14 | rm<<9 | sh<<3 | fn
}

func encodeI(op, rd, rn, imm uint64) uint64 {
	return op<<24 | rd<<19 | rn<<14 | imm&0x3FFF
}

func TestLayout(t *testing.T) {
	m := buildModule(t, ssa.O4)
	x := m.Registry.Bank("X")
	if x.Offset != 0 || x.Stride != 8 {
		t.Errorf("X bank layout: %+v", x)
	}
	nzcv := m.Registry.Bank("NZCV")
	if nzcv.Offset != 256 || nzcv.Stride != 1 {
		t.Errorf("NZCV layout: %+v", nzcv)
	}
	if m.Layout.PCOffset != 264 || m.Layout.Size != 272 {
		t.Errorf("layout: %+v", m.Layout)
	}
	if m.InstBits != 32 {
		t.Errorf("InstBits = %d", m.InstBits)
	}
}

func TestDecode(t *testing.T) {
	m := buildModule(t, ssa.O4)
	cases := []struct {
		word uint64
		name string
		ok   bool
	}{
		{encodeR(1, 3, 1, 2, 0, 0), "add", true},
		{encodeR(1, 3, 1, 2, 0, 1), "sub", true},
		{encodeR(1, 3, 1, 2, 0, 7), "", false}, // fn=7 undefined
		{encodeI(2, 3, 1, 123), "addi", true},
		{encodeI(3, 1, 1, 9), "addi_nz", true},
		{encodeI(3, 0, 1, 9), "", false}, // rd==0 violates predicate
		{encodeI(8, 0, 4, 16), "cbz", true},
		{encodeR(0xFF, 0, 0, 0, 0, 0), "", false},
	}
	for _, c := range cases {
		d, ok := m.Decode(c.word)
		if ok != c.ok {
			t.Errorf("Decode(%#x): ok=%v, want %v", c.word, ok, c.ok)
			continue
		}
		if ok && d.Info.Name != c.name {
			t.Errorf("Decode(%#x) = %s, want %s", c.word, d.Info.Name, c.name)
		}
	}
}

// TestDecodeMatchesLinearOracle fuzzes the decision tree against the naive
// first-match-in-declaration-order decoder.
func TestDecodeMatchesLinearOracle(t *testing.T) {
	m := buildModule(t, ssa.O1)
	rng := rand.New(rand.NewSource(99))
	linear := func(word uint64) (string, bool) {
		for _, in := range m.Instrs {
			if word&in.Mask == in.Match {
				d := Decoded{Info: in, Word: word}
				if in.Pred != nil && !evalWhen(d, in.Pred) {
					continue
				}
				return in.Name, true
			}
		}
		return "", false
	}
	for i := 0; i < 20000; i++ {
		word := rng.Uint64() & 0xFFFFFFFF
		if i%3 == 0 {
			// Bias towards valid opcodes.
			word = word&0x00FFFFFF | uint64(1+rng.Intn(10))<<24
		}
		wantName, wantOK := linear(word)
		d, ok := m.Decode(word)
		if ok != wantOK {
			t.Fatalf("Decode(%#x): ok=%v, oracle %v", word, ok, wantOK)
		}
		if ok && d.Info.Name != wantName {
			t.Fatalf("Decode(%#x) = %s, oracle %s", word, d.Info.Name, wantName)
		}
	}
}

func TestDecodeAmbiguityRejected(t *testing.T) {
	src := `arch t; wordsize 64;
bank X [4] u64;
format F { op:8 rest:24 }
instr a : F when op == 1 { write_gpr(0, 1); }
instr b : F when op == 1 { write_gpr(0, 2); }
`
	file, err := adl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	reg := ssa.NewRegistry()
	reg.AddBank(file.Bank("X"), "gpr")
	if _, err := Build(file, reg, ssa.O4); err == nil {
		t.Fatal("ambiguous decode patterns should be rejected")
	}
}

func TestFieldExtraction(t *testing.T) {
	m := buildModule(t, ssa.O4)
	d, ok := m.Decode(encodeR(1, 31, 7, 15, 42, 0))
	if !ok {
		t.Fatal("decode failed")
	}
	if d.Field("rd") != 31 || d.Field("rn") != 7 || d.Field("rm") != 15 || d.Field("sh") != 42 {
		t.Errorf("fields: rd=%d rn=%d rm=%d sh=%d", d.Field("rd"), d.Field("rn"), d.Field("rm"), d.Field("sh"))
	}
	// By index, in format order, as OpReadField and the interpreter read
	// them.
	f := d.AppendFields(nil)
	for i, fl := range d.Info.Format.Fields {
		if f[i] != d.Field(fl.Name) || d.FieldAt(i) != f[i] {
			t.Errorf("field %d (%s): AppendFields %d, FieldAt %d, Field %d",
				i, fl.Name, f[i], d.FieldAt(i), d.Field(fl.Name))
		}
	}
	if f[0] != 1 || f[len(f)-1] != 0 {
		t.Errorf("AppendFields: %v, want op 1 first and fn 0 last", f)
	}
}

func TestDecoderStats(t *testing.T) {
	m := buildModule(t, ssa.O4)
	st := m.Stats()
	if st.TotalInsn != 10 || st.Nodes < 2 || st.MaxDepth < 1 {
		t.Errorf("stats: %+v", st)
	}
}
