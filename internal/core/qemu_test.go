package core_test

import (
	"math"
	"math/rand"
	"testing"

	"captive/internal/core"
	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
	"captive/internal/hvm"
)

func newQemuEngine(t *testing.T) *core.Engine {
	t.Helper()
	vm, err := hvm.New(hvm.Config{GuestRAMBytes: 8 << 20, CodeCacheBytes: 4 << 20, PTPoolBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewQEMU(vm, ga64.Port{}, ga64.MustModule())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQemuArithmeticAndMemory(t *testing.T) {
	e := newQemuEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x200000)
	p.MovI(1, 0xCAFEBABE12345678)
	p.Str(1, 0, 0)
	p.Ldr(2, 0, 0)
	p.Ldrb(3, 0, 7)
	p.MovI(4, 100)
	p.MovI(5, 42)
	p.Mul(6, 4, 5)
	p.Hlt(0)
	runCaptive(t, e, p)
	if e.Reg(2) != 0xCAFEBABE12345678 || e.Reg(3) != 0xCA || e.Reg(6) != 4200 {
		t.Errorf("results: %#x %#x %d", e.Reg(2), e.Reg(3), e.Reg(6))
	}
	// Softmmu path: no host page faults expected (the addend points at the
	// direct map).
	if e.Metrics().HostFaults != 0 {
		t.Errorf("qemu baseline should not host-fault, got %d", e.Metrics().HostFaults)
	}
}

func TestQemuSoftFloat(t *testing.T) {
	e := newQemuEngine(t)
	p := asm.New(0x1000)
	p.MovF(0, 0, 1.5)
	p.MovF(1, 1, 2.5)
	p.Fmul(2, 0, 1)
	p.MovF(3, 3, -0.5)
	p.Fsqrt(4, 3) // ARM default NaN via the softfloat helper
	p.Hlt(0)
	runCaptive(t, e, p)
	if e.FReg(2) != math.Float64bits(3.75) {
		t.Errorf("fmul = %#x", e.FReg(2))
	}
	if e.FReg(4) != 0x7FF8000000000000 {
		t.Errorf("fsqrt(-0.5) = %#016x", e.FReg(4))
	}
}

func TestQemuExceptionsAndMMU(t *testing.T) {
	e := newQemuEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x8000)
	p.Msr(ga64.SysVBAR, 0)
	emitEnableMMU(p)
	p.Adr(0, "user")
	p.Msr(ga64.SysELR, 0)
	p.MovI(0, 0)
	p.Msr(ga64.SysSPSR, 0)
	p.Eret()
	p.Label("user")
	p.MovI(3, 0x1234)
	p.Svc(7)
	p.Hlt(9)
	handler := asm.New(0x8100)
	handler.Mrs(4, ga64.SysCURRENTEL)
	handler.Hlt(6)
	himg, _ := handler.Assemble()
	if err := e.LoadUser(himg, 0x8100); err != nil {
		t.Fatal(err)
	}
	runCaptive(t, e, p)
	if _, code := e.Halted(); code != 6 {
		t.Fatalf("exit = %d, want 6", code)
	}
	if e.Reg(3) != 0x1234 || e.Reg(4) != 1 {
		t.Errorf("X3=%#x X4=%d", e.Reg(3), e.Reg(4))
	}
	// The baseline flushed its translation cache when the MMU came on.
	if e.Metrics().CacheFlushes == 0 {
		t.Error("VA-indexed cache must flush on translation changes")
	}
}

func TestQemuUART(t *testing.T) {
	e := newQemuEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, ga64.UARTBase)
	for _, ch := range "tcg" {
		p.MovI(1, uint64(ch))
		p.Str32(1, 0, 0)
	}
	p.Hlt(0)
	runCaptive(t, e, p)
	if e.Console() != "tcg" {
		t.Errorf("console = %q", e.Console())
	}
}

func TestQemuSMC(t *testing.T) {
	e := newQemuEngine(t)
	p := asm.New(0x1000)
	p.MovI(asm.SP, 0x100000)
	p.BL("f")
	p.Mov(5, 0)
	p.Adr(1, "patchme")
	p.MovI(2, uint64(ga64.EncMOVW(ga64.OpMovz, 0, 0, 2)))
	p.Str32(2, 1, 0)
	p.BL("f")
	p.Mov(6, 0)
	p.Hlt(0)
	p.Label("f")
	p.Label("patchme")
	p.Movz(0, 1, 0)
	p.Ret()
	runCaptive(t, e, p)
	if e.Reg(5) != 1 || e.Reg(6) != 2 {
		t.Errorf("SMC: first=%d second=%d", e.Reg(5), e.Reg(6))
	}
	if e.Metrics().SMCInvals == 0 {
		t.Error("expected dirty-page invalidation")
	}
}

// TestQemuVsCaptiveDifferential runs random programs under both engines and
// demands identical architectural outcomes.
func TestQemuVsCaptiveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 20; trial++ {
		p := asm.New(0x1000)
		for r := uint32(2); r < 29; r++ {
			p.MovI(r, rng.Uint64()>>(rng.Intn(5)*13))
		}
		p.MovI(0, 0x200000)
		p.MovI(asm.SP, 0x300000)
		n := 30 + rng.Intn(50)
		for i := 0; i < n; i++ {
			rd := 2 + uint32(rng.Intn(27))
			rn := 2 + uint32(rng.Intn(27))
			rm := 2 + uint32(rng.Intn(27))
			switch rng.Intn(12) {
			case 0:
				p.Add(rd, rn, rm)
			case 1:
				p.Subs(rd, rn, rm)
			case 2:
				p.Mul(rd, rn, rm)
			case 3:
				p.SDiv(rd, rn, rm)
			case 4:
				p.Str(rn, 0, int32(rng.Intn(64))*8)
			case 5:
				p.Ldr(rd, 0, int32(rng.Intn(64))*8)
			case 6:
				p.Csinc(rd, rn, rm, uint32(rng.Intn(15)))
			case 7:
				p.Eor(rd, rn, rm)
			case 8:
				p.Lsrv(rd, rn, rm)
			case 9:
				p.Madd(rd, rn, rm, 2+uint32(rng.Intn(27)))
			case 10:
				p.Ldrsw(rd, 0, int32(rng.Intn(128)))
			case 11:
				p.Movn(rd, uint16(rng.Uint32()), uint32(rng.Intn(4)))
			}
		}
		p.Hlt(0)
		img, err := p.Assemble()
		if err != nil {
			t.Fatal(err)
		}

		ec := newEngine(t)
		if err := ec.LoadImage(img, 0x1000, 0x1000); err != nil {
			t.Fatal(err)
		}
		if err := ec.Run(1_000_000_000); err != nil {
			t.Fatalf("trial %d captive: %v", trial, err)
		}
		eq := newQemuEngine(t)
		if err := eq.LoadImage(img, 0x1000, 0x1000); err != nil {
			t.Fatal(err)
		}
		if err := eq.Run(1_000_000_000); err != nil {
			t.Fatalf("trial %d qemu: %v", trial, err)
		}
		for r := 0; r < 32; r++ {
			if ec.Reg(r) != eq.Reg(r) {
				t.Fatalf("trial %d: X%d: captive=%#x qemu=%#x", trial, r, ec.Reg(r), eq.Reg(r))
			}
		}
		if ec.NZCV() != eq.NZCV() {
			t.Fatalf("trial %d: NZCV differs", trial)
		}
	}
}
