// The engine tests live in an external test package: the port-layer
// invariant is that internal/core itself — test binary included — never
// depends on a concrete guest model; these tests drive it through
// ga64.Port exactly as production callers do.
package core_test

import (
	"math"
	"math/rand"
	"testing"

	"captive/internal/core"
	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
	"captive/internal/hvm"
	"captive/internal/interp"
)

func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	vm, err := hvm.New(hvm.Config{GuestRAMBytes: 8 << 20, CodeCacheBytes: 4 << 20, PTPoolBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(vm, ga64.Port{}, ga64.MustModule())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runCaptive assembles and runs a program to halt under the Captive engine.
func runCaptive(t *testing.T, e *core.Engine, p *asm.Program) {
	t.Helper()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadImage(img, p.Org(), p.Org()); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2_000_000_000); err != nil {
		t.Fatalf("run: %v (pc=%#x)", err, e.PC())
	}
	if h, _ := e.Halted(); !h {
		t.Fatal("guest did not halt")
	}
}

func TestEngineArithmetic(t *testing.T) {
	e := newEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, 100)
	p.MovI(1, 42)
	p.Add(2, 0, 1)
	p.Sub(3, 0, 1)
	p.Mul(4, 0, 1)
	p.UDiv(5, 0, 1)
	p.MovI(6, 0xFFFFFFFFFFFFFFFF)
	p.SDiv(7, 6, 1)
	p.Lsl(8, 1, 4)
	p.Hlt(0)
	runCaptive(t, e, p)
	want := map[int]uint64{2: 142, 3: 58, 4: 4200, 5: 2, 7: 0, 8: 672}
	for r, v := range want {
		if e.Reg(r) != v {
			t.Errorf("X%d = %d, want %d", r, e.Reg(r), v)
		}
	}
	if e.GuestInstrs() == 0 {
		t.Error("instruction counter not maintained")
	}
}

func TestEngineLoop(t *testing.T) {
	e := newEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0)
	p.MovI(1, 1)
	p.MovI(2, 10000)
	p.Label("loop")
	p.Add(0, 0, 1)
	p.AddI(1, 1, 1)
	p.Cmp(1, 2)
	p.BCond(ga64.CondLE, "loop")
	p.Hlt(0)
	runCaptive(t, e, p)
	if e.Reg(0) != 50005000 {
		t.Errorf("sum = %d, want 50005000", e.Reg(0))
	}
	// The loop reuses its translation: far fewer blocks than iterations.
	if e.Metrics().JITBlocks > 10 {
		t.Errorf("translated %d blocks for a 3-block program", e.Metrics().JITBlocks)
	}
	if e.Metrics().BlockChains == 0 {
		t.Error("expected block chaining on the loop back-edge")
	}
}

func TestEngineMemory(t *testing.T) {
	e := newEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x200000)
	p.MovI(1, 0xCAFEBABE12345678)
	p.Str(1, 0, 0)
	p.Ldr(2, 0, 0)
	p.Ldr32(3, 0, 0)
	p.Ldrb(4, 0, 7)
	p.Stp(1, 2, 0, 2)
	p.Ldp(5, 6, 0, 2)
	p.Hlt(0)
	runCaptive(t, e, p)
	if e.Reg(2) != 0xCAFEBABE12345678 || e.Reg(3) != 0x12345678 || e.Reg(4) != 0xCA {
		t.Errorf("loads: %#x %#x %#x", e.Reg(2), e.Reg(3), e.Reg(4))
	}
	if e.Reg(5) != 0xCAFEBABE12345678 || e.Reg(6) != 0xCAFEBABE12345678 {
		t.Errorf("ldp: %#x %#x", e.Reg(5), e.Reg(6))
	}
	if e.Metrics().HostFaults == 0 {
		t.Error("expected demand-population host faults")
	}
}

func TestEngineFloatingPoint(t *testing.T) {
	e := newEngine(t)
	p := asm.New(0x1000)
	p.MovF(0, 0, 1.5)
	p.MovF(1, 1, 2.5)
	p.Fmul(2, 0, 1)
	p.MovF(3, 3, -0.5)
	p.Fsqrt(4, 3) // Table 2: ARM default NaN expected after fix-up
	p.Fsqrt(5, 1) // sqrt(2.5)
	p.Fcmp(0, 1)
	p.Csel(6, 0, 1, ga64.CondLT) // F-compare sets flags: 1.5 < 2.5
	p.Fcvtzs(7, 2)               // 3
	p.Scvtf(8, 7)
	p.Hlt(0)
	runCaptive(t, e, p)
	f := math.Float64bits
	if e.FReg(2) != f(3.75) {
		t.Errorf("fmul = %#x", e.FReg(2))
	}
	if e.FReg(4) != 0x7FF8000000000000 {
		t.Errorf("fsqrt(-0.5) = %#016x, want ARM default NaN (fix-up path)", e.FReg(4))
	}
	if e.FReg(5) != f(math.Sqrt(2.5)) {
		t.Errorf("fsqrt(2.5) = %#x", e.FReg(5))
	}
	if e.Reg(7) != 3 {
		t.Errorf("fcvtzs = %d", e.Reg(7))
	}
	if e.FReg(8) != f(3.0) {
		t.Errorf("scvtf = %#x", e.FReg(8))
	}
}

func TestEngineUART(t *testing.T) {
	e := newEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, ga64.UARTBase)
	for _, ch := range "captive" {
		p.MovI(1, uint64(ch))
		p.Str32(1, 0, 0)
	}
	p.Hlt(0)
	runCaptive(t, e, p)
	if e.Console() != "captive" {
		t.Errorf("console = %q", e.Console())
	}
	if e.Metrics().MMIOEmulations != 7 {
		t.Errorf("MMIO emulations = %d, want 7", e.Metrics().MMIOEmulations)
	}
}

func TestEngineExceptionsAndEret(t *testing.T) {
	e := newEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x8000)
	p.Msr(ga64.SysVBAR, 0)
	p.Svc(42)
	p.MovI(6, 1)
	p.Hlt(0)
	handler := asm.New(0x8000)
	handler.Mrs(5, ga64.SysESR)
	handler.Eret()
	himg, err := handler.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadUser(himg, 0x8000); err != nil {
		t.Fatal(err)
	}
	runCaptive(t, e, p)
	if e.Reg(5) != uint64(ga64.ECSVC)<<26|42 {
		t.Errorf("ESR = %#x", e.Reg(5))
	}
	if e.Reg(6) != 1 {
		t.Error("did not resume after eret")
	}
}

func TestEngineMMUAndUserMode(t *testing.T) {
	e := newEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x8000)
	p.Msr(ga64.SysVBAR, 0)
	// Build page tables: 2 MiB identity block, user-accessible; plus the
	// device window.
	emitEnableMMU(p)
	// Drop to EL0.
	p.Adr(0, "user")
	p.Msr(ga64.SysELR, 0)
	p.MovI(0, 0)
	p.Msr(ga64.SysSPSR, 0)
	p.Eret()
	p.Label("user")
	p.MovI(3, 0x1234)
	p.Svc(7)
	p.Hlt(9)

	handler := asm.New(0x8100) // sync-from-EL0 vector
	handler.Mrs(4, ga64.SysCURRENTEL)
	handler.Hlt(6)
	himg, _ := handler.Assemble()
	if err := e.LoadUser(himg, 0x8100); err != nil {
		t.Fatal(err)
	}
	runCaptive(t, e, p)
	if _, code := e.Halted(); code != 6 {
		t.Fatalf("exit code = %d, want 6", code)
	}
	if e.Reg(3) != 0x1234 || e.Reg(4) != 1 {
		t.Errorf("user run: X3=%#x X4=%d", e.Reg(3), e.Reg(4))
	}
}

// emitEnableMMU builds an identity 2 MiB block mapping plus the device
// window, then enables the MMU (mirrors the interpreter test helper).
func emitEnableMMU(p *asm.Program) {
	const ptRoot = 0x200000
	p.MovI(0, ptRoot)
	p.MovI(1, ptRoot+0x1000)
	p.OrrI(1, 1, ga64.PTEValid|ga64.PTEWrite|ga64.PTEUser)
	p.Str(1, 0, 0)
	p.MovI(0, ptRoot+0x1000)
	p.MovI(1, ptRoot+0x2000)
	p.OrrI(1, 1, ga64.PTEValid|ga64.PTEWrite|ga64.PTEUser)
	p.Str(1, 0, 0)
	p.MovI(0, ptRoot+0x2000)
	p.MovI(1, ga64.PTEValid|ga64.PTEWrite|ga64.PTEUser|ga64.PTELarge)
	p.Str(1, 0, 0)
	p.MovI(1, ga64.DeviceBase|ga64.PTEValid|ga64.PTEWrite|ga64.PTEUser|ga64.PTELarge)
	p.MovI(2, 128*8)
	p.Add(2, 0, 2)
	p.Str(1, 2, 0)
	p.MovI(0, ptRoot)
	p.Msr(ga64.SysTTBR0, 0)
	p.MovI(0, ga64.SCTLRMmuEnable)
	p.Msr(ga64.SysSCTLR, 0)
}

func TestEngineDataAbort(t *testing.T) {
	e := newEngine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x8000)
	p.Msr(ga64.SysVBAR, 0)
	emitEnableMMU(p)
	p.MovI(0, 0x40000000) // unmapped under the 2 MiB identity map
	p.Ldr(1, 0, 0)
	p.Hlt(9)
	handler := asm.New(0x8000)
	handler.Mrs(3, ga64.SysFAR)
	handler.Hlt(5)
	himg, _ := handler.Assemble()
	if err := e.LoadUser(himg, 0x8000); err != nil {
		t.Fatal(err)
	}
	runCaptive(t, e, p)
	if _, code := e.Halted(); code != 5 {
		t.Fatalf("exit = %d, want 5", code)
	}
	if e.Reg(3) != 0x40000000 {
		t.Errorf("FAR = %#x", e.Reg(3))
	}
}

func TestEngineSelfModifyingCode(t *testing.T) {
	e := newEngine(t)
	p := asm.New(0x1000)
	// Run a function twice; between runs, overwrite one of its
	// instructions (movz x0,#1 -> movz x0,#2) and tlbi-style sync.
	p.MovI(asm.SP, 0x100000)
	p.BL("f")
	p.Mov(5, 0) // first result
	// Patch: the movz at "patchme" with imm 2.
	p.Adr(1, "patchme")
	p.MovI(2, uint64(ga64.EncMOVW(ga64.OpMovz, 0, 0, 2)))
	p.Str32(2, 1, 0)
	p.BL("f")
	p.Mov(6, 0) // second result
	p.Hlt(0)
	p.Label("f")
	p.Label("patchme")
	p.Movz(0, 1, 0)
	p.Ret()
	runCaptive(t, e, p)
	if e.Reg(5) != 1 || e.Reg(6) != 2 {
		t.Errorf("SMC: first=%d second=%d, want 1 and 2", e.Reg(5), e.Reg(6))
	}
	if e.Metrics().SMCInvals == 0 {
		t.Error("expected an SMC invalidation")
	}
}

// TestEngineDifferentialRandom runs random straight-line instruction
// sequences under both the Captive engine and the reference interpreter and
// compares the full architectural state.
func TestEngineDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	module := ga64.MustModule()
	for trial := 0; trial < 30; trial++ {
		p := asm.New(0x1000)
		// Seed registers with deterministic values.
		for r := uint32(0); r < 29; r++ {
			p.MovI(r, rng.Uint64()>>(rng.Intn(5)*13))
		}
		p.MovI(0, 0x200000) // keep X0 a valid buffer pointer
		p.MovI(asm.SP, 0x300000)
		n := 30 + rng.Intn(60)
		for i := 0; i < n; i++ {
			// X0 stays the buffer pointer; random ops use X2..X28.
			rd := 2 + uint32(rng.Intn(27))
			rn := 2 + uint32(rng.Intn(27))
			rm := 2 + uint32(rng.Intn(27))
			switch rng.Intn(16) {
			case 0:
				p.Add(rd, rn, rm)
			case 1:
				p.Sub(rd, rn, rm)
			case 2:
				p.Mul(rd, rn, rm)
			case 3:
				p.Subs(rd, rn, rm)
			case 4:
				p.Eor(rd, rn, rm)
			case 5:
				p.Lslv(rd, rn, rm)
			case 6:
				p.UDiv(rd, rn, rm)
			case 7:
				p.Csel(rd, rn, rm, uint32(rng.Intn(15)))
			case 8:
				p.Str(rn, 0, int32(rng.Intn(64))*8)
			case 9:
				p.Ldr(rd, 0, int32(rng.Intn(64))*8)
			case 10:
				p.Madd(rd, rn, rm, uint32(rng.Intn(29)))
			case 11:
				p.Movz(rd, uint16(rng.Uint32()), uint32(rng.Intn(4)))
			case 12:
				p.Adds(rd, rn, rm)
			case 13:
				p.Asrv(rd, rn, rm)
			case 14:
				p.Ldrsb(rd, 0, int32(rng.Intn(256)))
			case 15:
				p.AddI(rd, rn, uint32(rng.Intn(1<<14)))
			}
		}
		p.Hlt(0)
		img, err := p.Assemble()
		if err != nil {
			t.Fatal(err)
		}

		// Interpreter run.
		im := interp.New(ga64.Port{}, module, 8<<20)
		if err := im.LoadImage(img, 0x1000, 0x1000); err != nil {
			t.Fatal(err)
		}
		if _, err := im.Run(1_000_000); err != nil {
			t.Fatalf("trial %d: interp: %v", trial, err)
		}

		// Captive run.
		e := newEngine(t)
		if err := e.LoadImage(img, 0x1000, 0x1000); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(1_000_000_000); err != nil {
			t.Fatalf("trial %d: captive: %v", trial, err)
		}

		for r := 0; r < 32; r++ {
			if e.Reg(r) != im.Reg(r) {
				t.Fatalf("trial %d: X%d differs: captive=%#x interp=%#x",
					trial, r, e.Reg(r), im.Reg(r))
			}
		}
		if e.NZCV() != im.NZCV() {
			t.Fatalf("trial %d: NZCV differs: %04b vs %04b", trial, e.NZCV(), im.NZCV())
		}
	}
}

func TestEngineRecursionDifferential(t *testing.T) {
	build := func() *asm.Program {
		p := asm.New(0x1000)
		p.MovI(asm.SP, 0x100000)
		p.MovI(0, 18)
		p.BL("fib")
		p.Hlt(0)
		p.Label("fib")
		p.CmpI(0, 2)
		p.BCond(ga64.CondCS, "rec")
		p.Ret()
		p.Label("rec")
		p.SubI(asm.SP, asm.SP, 32)
		p.Str(asm.LR, asm.SP, 0)
		p.Str(0, asm.SP, 8)
		p.SubI(0, 0, 1)
		p.BL("fib")
		p.Str(0, asm.SP, 16)
		p.Ldr(0, asm.SP, 8)
		p.SubI(0, 0, 2)
		p.BL("fib")
		p.Ldr(1, asm.SP, 16)
		p.Add(0, 0, 1)
		p.Ldr(asm.LR, asm.SP, 0)
		p.AddI(asm.SP, asm.SP, 32)
		p.Ret()
		return p
	}
	e := newEngine(t)
	runCaptive(t, e, build())
	if e.Reg(0) != 2584 {
		t.Errorf("fib(18) = %d, want 2584", e.Reg(0))
	}
}
