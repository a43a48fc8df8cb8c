package interp

import (
	"math"
	"testing"

	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
)

func newMachine(t *testing.T) *Machine {
	t.Helper()
	return New(ga64.Port{}, ga64.MustModule(), 1<<22) // 4 MiB RAM
}

// runProgram assembles p, loads it at its org, and runs to halt.
func runProgram(t *testing.T, m *Machine, p *asm.Program) {
	t.Helper()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(img, p.Org(), p.Org()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted {
		t.Fatal("machine did not halt")
	}
}

func TestArithmetic(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	p.MovI(0, 100)
	p.MovI(1, 42)
	p.Add(2, 0, 1)  // 142
	p.Sub(3, 0, 1)  // 58
	p.Mul(4, 0, 1)  // 4200
	p.UDiv(5, 0, 1) // 2
	p.MovI(6, 0xFFFFFFFFFFFFFFFF)
	p.SDiv(7, 6, 1) // -1/42 = 0 (signed)
	p.Lsl(8, 1, 4)  // 672
	p.MovI(9, 0xDEADBEEF12345678)
	p.Hlt(0)
	runProgram(t, m, p)
	want := map[int]uint64{2: 142, 3: 58, 4: 4200, 5: 2, 7: 0, 8: 672, 9: 0xDEADBEEF12345678}
	for r, v := range want {
		if m.Reg(r) != v {
			t.Errorf("X%d = %d (%#x), want %d", r, m.Reg(r), m.Reg(r), v)
		}
	}
}

func TestLoopAndBranches(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	// sum = 0; for i = 1..100 sum += i
	p.MovI(0, 0)   // sum
	p.MovI(1, 1)   // i
	p.MovI(2, 100) // limit
	p.Label("loop")
	p.Add(0, 0, 1)
	p.AddI(1, 1, 1)
	p.Cmp(1, 2)
	p.BCond(ga64.CondLE, "loop")
	p.Hlt(0)
	runProgram(t, m, p)
	if m.Reg(0) != 5050 {
		t.Errorf("sum = %d, want 5050", m.Reg(0))
	}
}

func TestFunctionCall(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	// Recursive fibonacci via BL/RET with a stack.
	p.MovI(asm.SP, 0x100000)
	p.MovI(0, 15)
	p.BL("fib")
	p.Hlt(0)
	p.Label("fib")
	p.CmpI(0, 2)
	p.BCond(ga64.CondCS, "rec") // n >= 2
	p.Ret()
	p.Label("rec")
	p.SubI(asm.SP, asm.SP, 32)
	p.Str(asm.LR, asm.SP, 0)
	p.Str(0, asm.SP, 8)
	p.SubI(0, 0, 1)
	p.BL("fib") // fib(n-1)
	p.Str(0, asm.SP, 16)
	p.Ldr(0, asm.SP, 8)
	p.SubI(0, 0, 2)
	p.BL("fib") // fib(n-2)
	p.Ldr(1, asm.SP, 16)
	p.Add(0, 0, 1)
	p.Ldr(asm.LR, asm.SP, 0)
	p.AddI(asm.SP, asm.SP, 32)
	p.Ret()
	runProgram(t, m, p)
	if m.Reg(0) != 610 {
		t.Errorf("fib(15) = %d, want 610", m.Reg(0))
	}
}

func TestMemoryAndPairs(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x2000)
	p.MovI(1, 0x1111111111111111)
	p.MovI(2, 0x2222222222222222)
	p.Stp(1, 2, 0, 0) // [0x2000],[0x2008]
	p.Ldp(3, 4, 0, 0) //
	p.Ldr32(5, 0, 0)  // low word zext
	p.Ldrb(6, 0, 8)   // 0x22
	p.MovI(7, 0x80)   //
	p.Strb(7, 0, 16)  //
	p.Ldrsb(8, 0, 16) // sign-extended -128
	p.Str32(2, 0, 24) //
	p.Ldrsw(9, 0, 24) // 0x22222222 sign-extended (positive)
	p.Hlt(0)
	runProgram(t, m, p)
	if m.Reg(3) != 0x1111111111111111 || m.Reg(4) != 0x2222222222222222 {
		t.Errorf("ldp: %#x %#x", m.Reg(3), m.Reg(4))
	}
	if m.Reg(5) != 0x11111111 || m.Reg(6) != 0x22 {
		t.Errorf("narrow loads: %#x %#x", m.Reg(5), m.Reg(6))
	}
	if int64(m.Reg(8)) != -128 {
		t.Errorf("ldrsb: %d", int64(m.Reg(8)))
	}
	if m.Reg(9) != 0x22222222 {
		t.Errorf("ldrsw: %#x", m.Reg(9))
	}
}

func TestFloatingPointAndTable2(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	p.MovF(0, 0, 1.5)
	p.MovF(1, 1, 2.5)
	p.Fmul(2, 0, 1) // 3.75
	p.Fadd(3, 0, 1) // 4.0
	p.Fdiv(4, 1, 0) // 1.6666...
	p.MovF(5, 5, -0.5)
	p.Fsqrt(6, 5) // ARM: +default NaN (Table 2)
	p.MovF(7, 7, 0.5)
	p.Fsqrt(8, 7)                   // sqrt(0.5)
	p.Fcmp(0, 1)                    // 1.5 < 2.5 -> N
	p.Csinc(9, 10, 10, ga64.CondMI) // N set -> rn path? csel semantics
	p.Scvtf(10, 9)
	p.Fcvtzs(11, 2) // 3
	p.Hlt(0)
	runProgram(t, m, p)
	f := math.Float64bits
	if m.FReg(2) != f(3.75) || m.FReg(3) != f(4.0) {
		t.Errorf("fmul/fadd: %#x %#x", m.FReg(2), m.FReg(3))
	}
	if m.FReg(4) != f(2.5/1.5) {
		t.Errorf("fdiv: %#x", m.FReg(4))
	}
	// Table 2: ARM FSQRT(-0.5) is the positive default NaN.
	if m.FReg(6) != 0x7FF8000000000000 {
		t.Errorf("fsqrt(-0.5) = %#016x, want ARM default NaN", m.FReg(6))
	}
	if m.FReg(8) != f(math.Sqrt(0.5)) {
		t.Errorf("fsqrt(0.5) = %#x", m.FReg(8))
	}
	if m.Reg(11) != 3 {
		t.Errorf("fcvtzs(3.75) = %d", m.Reg(11))
	}
}

func TestVector2D(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x3000)
	p.MovI(1, 10)
	p.Str(1, 0, 0)
	p.MovI(1, 20)
	p.Str(1, 0, 8)
	p.MovI(1, 30)
	p.Str(1, 0, 16)
	p.MovI(1, 40)
	p.Str(1, 0, 24)
	p.Vld1(0, 0, 0)  // V0 = {10, 20}
	p.Vld1(1, 0, 16) // V1 = {30, 40}
	p.VAdd2D(2, 0, 1)
	p.Vst1(2, 0, 32)
	p.Ldr(2, 0, 32)
	p.Ldr(3, 0, 40)
	p.Hlt(0)
	runProgram(t, m, p)
	if m.Reg(2) != 40 || m.Reg(3) != 60 {
		t.Errorf("vadd.2d = {%d, %d}, want {40, 60}", m.Reg(2), m.Reg(3))
	}
}

func TestUARTOutput(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	p.MovI(0, ga64.UARTBase)
	for _, ch := range "hi!" {
		p.MovI(1, uint64(ch))
		p.Str32(1, 0, 0) // UART TX
	}
	p.Hlt(0)
	runProgram(t, m, p)
	if m.Console() != "hi!" {
		t.Errorf("console = %q", m.Console())
	}
}

func TestSVCAndEret(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	// Install vectors at 0x8000, do an SVC from EL1, check ESR/ELR in the
	// handler, return, verify state.
	p.MovI(0, 0x8000)
	p.Msr(ga64.SysVBAR, 0)
	p.MovI(5, 0)
	p.Svc(42)
	p.MovI(6, 1) // executed after eret
	p.Hlt(0)

	// Vector: sync from EL1 at VBAR+0.
	handler := asm.New(0x8000)
	handler.Mrs(5, ga64.SysESR) // X5 = ESR
	handler.Eret()
	himg, err := handler.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	copy(m.Mem[0x8000:], himg)

	runProgram(t, m, p)
	wantESR := uint64(ga64.ECSVC)<<26 | 42
	if m.Reg(5) != wantESR {
		t.Errorf("ESR in handler = %#x, want %#x", m.Reg(5), wantESR)
	}
	if m.Reg(6) != 1 {
		t.Error("execution did not resume after eret")
	}
	if m.Exceptions != 1 {
		t.Errorf("exceptions = %d", m.Exceptions)
	}
}

func TestUndefinedInstruction(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x8000)
	p.Msr(ga64.SysVBAR, 0)
	p.Word(0xFF000000) // undefined opcode
	p.Hlt(9)           // skipped: handler halts with 7

	handler := asm.New(0x8000)
	handler.Hlt(7)
	himg, _ := handler.Assemble()
	copy(m.Mem[0x8000:], himg)

	runProgram(t, m, p)
	if m.ExitCode != 7 {
		t.Errorf("exit code = %d, want 7 (undef handler)", m.ExitCode)
	}
}

// buildPageTableProgram emits code that builds a 2 MiB block mapping of
// PA 0 at VA 0 (user-accessible) plus a kernel alias in the high half, then
// enables the MMU.
func emitEnableMMU(p *asm.Program, ptRoot uint64) {
	// Level-3 root at ptRoot; L2 at ptRoot+0x1000; L1 at ptRoot+0x2000.
	// Map VA[0,2M) -> PA[0,2M) with a block entry, user+write.
	p.MovI(0, ptRoot)
	p.MovI(1, ptRoot+0x1000) // L2 table address
	p.OrrI(1, 1, ga64.PTEValid|ga64.PTEWrite|ga64.PTEUser)
	p.Str(1, 0, 0) // root[0] -> L2
	p.MovI(0, ptRoot+0x1000)
	p.MovI(1, ptRoot+0x2000)
	p.OrrI(1, 1, ga64.PTEValid|ga64.PTEWrite|ga64.PTEUser)
	p.Str(1, 0, 0) // L2[0] -> L1
	p.MovI(0, ptRoot+0x2000)
	p.MovI(1, ga64.PTEValid|ga64.PTEWrite|ga64.PTEUser|ga64.PTELarge) // block at PA 0
	p.Str(1, 0, 0)                                                    // L1[0] -> 2M block
	// Second 2M block (covers the device window at 16M? no — devices are
	// at 256M; map them with a separate entry below).
	// Map the device window VA 0x10000000 -> PA 0x10000000: L1 index 128.
	p.MovI(1, ga64.DeviceBase|ga64.PTEValid|ga64.PTEWrite|ga64.PTEUser|ga64.PTELarge)
	p.MovI(2, 128*8)
	p.Add(2, 0, 2)
	p.Str(1, 2, 0)
	// TTBR0 = root, enable MMU.
	p.MovI(0, ptRoot)
	p.Msr(ga64.SysTTBR0, 0)
	p.MovI(0, ga64.SCTLRMmuEnable)
	p.Msr(ga64.SysSCTLR, 0)
}

func TestMMUEnableAndTranslate(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	emitEnableMMU(p, 0x200000)
	// With the MMU on (identity block map), memory still works.
	p.MovI(0, 0x3000)
	p.MovI(1, 0xABCD)
	p.Str(1, 0, 0)
	p.Ldr(2, 0, 0)
	p.Hlt(0)
	runProgram(t, m, p)
	if m.Reg(2) != 0xABCD {
		t.Errorf("load under MMU = %#x", m.Reg(2))
	}
	if !m.Sys.MMUOn() {
		t.Error("MMU should be enabled")
	}
}

func TestDataAbortUnmapped(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x8000)
	p.Msr(ga64.SysVBAR, 0)
	emitEnableMMU(p, 0x200000)
	// Access beyond the 2 MiB mapping: VA 0x40000000 is unmapped.
	p.MovI(0, 0x40000000)
	p.Ldr(1, 0, 0)
	p.Hlt(9)

	handler := asm.New(0x8000)
	handler.Mrs(3, ga64.SysFAR)
	handler.Mrs(4, ga64.SysESR)
	handler.Hlt(5)
	himg, _ := handler.Assemble()
	copy(m.Mem[0x8000:], himg)

	runProgram(t, m, p)
	if m.ExitCode != 5 {
		t.Fatalf("exit = %d, want abort handler", m.ExitCode)
	}
	if m.Reg(3) != 0x40000000 {
		t.Errorf("FAR = %#x", m.Reg(3))
	}
	ec := m.Reg(4) >> 26
	if ec != ga64.ECDataAbortSame {
		t.Errorf("EC = %#x, want data abort same EL", ec)
	}
}

func TestUserModeAndSyscall(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x8000)
	p.Msr(ga64.SysVBAR, 0)
	emitEnableMMU(p, 0x200000)
	// Drop to EL0 at label "user" (identity-mapped, user-accessible).
	p.Adr(0, "user")
	p.Msr(ga64.SysELR, 0)
	p.MovI(0, 0) // SPSR: EL0, flags clear
	p.Msr(ga64.SysSPSR, 0)
	p.Eret()
	p.Label("user")
	p.MovI(3, 0x1234) // runs at EL0
	p.Svc(7)          // syscall
	p.Hlt(9)          // unreachable: handler halts

	handler := asm.New(0x8100) // VBAR+0x100: sync from EL0
	handler.Mrs(4, ga64.SysCURRENTEL)
	handler.Hlt(6)
	himg, _ := handler.Assemble()
	copy(m.Mem[0x8100:], himg)

	runProgram(t, m, p)
	if m.ExitCode != 6 {
		t.Fatalf("exit = %d, want EL0-sync handler", m.ExitCode)
	}
	if m.Reg(3) != 0x1234 {
		t.Error("user code did not run")
	}
	if m.Reg(4) != 1 {
		t.Errorf("handler EL = %d, want 1", m.Reg(4))
	}
}

func TestUserCannotTouchKernelState(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	p.MovI(0, 0x8000)
	p.Msr(ga64.SysVBAR, 0)
	emitEnableMMU(p, 0x200000)
	p.Adr(0, "user")
	p.Msr(ga64.SysELR, 0)
	p.MovI(0, 0)
	p.Msr(ga64.SysSPSR, 0)
	p.Eret()
	p.Label("user")
	p.MovI(0, 0x300000)
	p.Msr(ga64.SysTTBR0, 0) // privileged: must trap as undefined
	p.Hlt(9)

	handler := asm.New(0x8100)
	handler.Hlt(8)
	himg, _ := handler.Assemble()
	copy(m.Mem[0x8100:], himg)

	runProgram(t, m, p)
	if m.ExitCode != 8 {
		t.Errorf("exit = %d, want undef-at-EL0 handler", m.ExitCode)
	}
}

func TestCNTVCTMonotonic(t *testing.T) {
	// The virtual counter is charged block-granularly (like the engines'
	// instrumentation prologue), so two reads in the same block see the same
	// value — that is what makes mid-block reads bit-identical across
	// engines — and a read in a later block sees a strictly larger one.
	m := newMachine(t)
	p := asm.New(0x1000)
	p.Mrs(0, ga64.SysCNTVCT)
	p.Nop()
	p.Mrs(1, ga64.SysCNTVCT)
	p.BNext() // block boundary
	p.Mrs(2, ga64.SysCNTVCT)
	p.Hlt(0)
	runProgram(t, m, p)
	if m.Reg(1) != m.Reg(0) {
		t.Errorf("mid-block counter moved: %d then %d", m.Reg(0), m.Reg(1))
	}
	if m.Reg(2) <= m.Reg(0) {
		t.Errorf("counter not monotonic across blocks: %d then %d", m.Reg(0), m.Reg(2))
	}
}

func TestCselAndFlags(t *testing.T) {
	m := newMachine(t)
	p := asm.New(0x1000)
	p.MovI(0, 5)
	p.MovI(1, 7)
	p.MovI(2, 100)
	p.MovI(3, 200)
	p.Cmp(0, 1)                   // 5 < 7
	p.Csel(4, 2, 3, ga64.CondLT)  // 100
	p.Csel(5, 2, 3, ga64.CondGE)  // 200
	p.Csinc(6, 2, 3, ga64.CondEQ) // not equal -> 201
	p.Subs(7, 0, 0)               // zero -> Z
	p.Csel(8, 2, 3, ga64.CondEQ)  // 100
	p.Hlt(0)
	runProgram(t, m, p)
	want := map[int]uint64{4: 100, 5: 200, 6: 201, 8: 100}
	for r, v := range want {
		if m.Reg(r) != v {
			t.Errorf("X%d = %d, want %d", r, m.Reg(r), v)
		}
	}
}
