package core

import (
	"bytes"
	"strings"
	"testing"

	"captive/internal/vx64"
)

// TestOperandsMatchEncoding holds the register allocator to the encoder for
// every opcode the decoder accepts: the operand list names exactly the
// register fields Encode writes, in the order Rd, Rs, Rs2, then the memory
// operand's base and index vregs as GPR uses when Encode writes a memory
// operand. Each register field's role and class are its opcode row's,
// which vx64's TestOpTableMatchesExecution holds to execution.
func TestOperandsMatchEncoding(t *testing.T) {
	ops := 0
	for b := 0; b < 256; b++ {
		op := vx64.Op(b)
		if _, _, err := vx64.Decode(append([]byte{byte(op)}, make([]byte, 16)...), 0); err != nil {
			continue
		}
		ops++
		base := vx64.Inst{Op: op, M: vx64.Mem{Base: vx64.R1, Index: vx64.NoReg, Scale: 1}}
		fieldOf := func(in *vx64.Inst, f int) *uint16 { return []*uint16{&in.Rd, &in.Rs, &in.Rs2}[f] }

		var want []string
		for f, name := range []string{"Rd", "Rs", "Rs2"} {
			a, c := base, base
			*fieldOf(&a, f), *fieldOf(&c, f) = 1, 2
			if !bytes.Equal(vx64.Encode(nil, &a), vx64.Encode(nil, &c)) {
				want = append(want, name)
			}
		}
		a, c := base, base
		a.M.Base, c.M.Base = vx64.R1, vx64.R2
		if !bytes.Equal(vx64.Encode(nil, &a), vx64.Encode(nil, &c)) {
			want = append(want, "MBaseV", "MIndexV")
		}

		li := LInst{I: base}
		li.I.MBaseV, li.I.MIndexV = 8, 9
		var got []string
		for _, o := range appendOperands(nil, &li) {
			name := map[*uint16]string{&li.I.Rd: "Rd", &li.I.Rs: "Rs", &li.I.Rs2: "Rs2",
				&li.I.MBaseV: "MBaseV", &li.I.MIndexV: "MIndexV"}[o.field]
			got = append(got, name)
			if (name == "MBaseV" || name == "MIndexV") && o.Operand != vx64.OpUse {
				t.Errorf("%v: memory operand %s is %#x, want a GPR use", op, name, o.Operand)
			}
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%v: allocator operands %v, Encode writes %v", op, got, want)
		}
	}
	if ops < 80 {
		t.Fatalf("only %d opcodes decode", ops)
	}
}
