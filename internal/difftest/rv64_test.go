package difftest

import (
	"math/bits"
	"testing"

	"captive/internal/guest/rv64/asm"
)

// mEdgeCases is the directed M-extension edge-case program: every divide
// corner the RISC-V spec pins (division by zero, the MinInt64/-1 overflow)
// and every mulh sign combination, with results parked in x10–x25.
func mEdgeCases() *asm.Program {
	p := asm.New(RVOrg)
	p.Li(5, 7)                  // a small positive
	p.Li(6, 0)                  // zero divisor
	p.Li(7, 1<<63)              // MinInt64
	p.Li(8, 0xFFFFFFFFFFFFFFFF) // -1
	p.Li(9, 0x7FFFFFFFFFFFFFFF) // MaxInt64
	p.Div(10, 5, 6)             // 7 / 0        = -1
	p.Divu(11, 5, 6)            // 7 /u 0       = 2^64-1
	p.Rem(12, 5, 6)             // 7 % 0        = 7
	p.Remu(13, 5, 6)            // 7 %u 0       = 7
	p.Div(14, 7, 8)             // MinInt64/-1  = MinInt64 (overflow)
	p.Rem(15, 7, 8)             // MinInt64%-1  = 0
	p.Div(16, 6, 6)             // 0 / 0        = -1
	p.Rem(17, 6, 6)             // 0 % 0        = 0
	p.Mulh(18, 8, 5)            // -1 * 7       -> high -1
	p.Mulh(19, 7, 8)            // MinInt64*-1  -> high 0 (2^63 exactly)
	p.Mulh(20, 9, 9)            // Max*Max      -> high 0x3FFF...
	p.Mulhu(21, 8, 8)           // (2^64-1)^2   -> high 2^64-2
	p.Mulhu(22, 8, 5)           // (2^64-1)*7   -> high 6
	p.Mulhsu(23, 8, 8)          // -1 * (2^64-1)u -> high -1
	p.Mulhsu(24, 7, 8)          // MinInt64 * (2^64-1)u
	p.Mulhsu(25, 5, 8)          // 7 * (2^64-1)u -> high 6
	p.Ecall()
	return p
}

// TestRV64MExtensionEdgeCases runs the directed program through the full
// engine matrix, asserting full-state equality across engines *and* the
// architecturally-required values from the RISC-V spec.
func TestRV64MExtensionEdgeCases(t *testing.T) {
	img, err := mEdgeCases().Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p := &Program{Seed: -1, Image: img}

	golden := checkDirected(t, RV64User, "m-edge-cases", p)[0]
	reg := func(st State, n int) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(st.Regs[8*n+i]) << (8 * i)
		}
		return v
	}
	want := map[int]uint64{
		10: ^uint64(0),         // div by zero -> -1
		11: ^uint64(0),         // divu by zero -> all ones
		12: 7,                  // rem by zero -> dividend
		13: 7,                  // remu by zero -> dividend
		14: 1 << 63,            // signed overflow -> MinInt64
		15: 0,                  // overflow remainder -> 0
		16: ^uint64(0),         // 0/0 -> -1
		17: 0,                  // 0%0 -> 0
		18: ^uint64(0),         // high(-1 * 7) = -1
		19: 0,                  // high(MinInt64 * -1) = 0
		20: 0x3FFFFFFFFFFFFFFF, // high(Max * Max)
		21: ^uint64(0) - 1,     // high((2^64-1)^2) = 2^64-2
		22: 6,                  // high((2^64-1) * 7)
		23: ^uint64(0),         // high(-1 * (2^64-1)u) = -1
		25: 6,                  // high(7 * (2^64-1)u)
	}
	// x24 = mulhsu(MinInt64, 2^64-1), via the identity
	// mulhsu(a,b) = mulhu(a,b) - (a<0 ? b : 0). The unsigned high half
	// comes from the host's native widening multiply — an oracle
	// independent of the ADL helper's 32-bit decomposition.
	hi, _ := bits.Mul64(1<<63, ^uint64(0))
	want[24] = hi - ^uint64(0)

	for n, v := range want {
		if got := reg(golden, n); got != v {
			t.Errorf("golden x%d = %#x, want %#x (spec)", n, got, v)
		}
	}
}
