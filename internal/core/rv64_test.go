package core_test

// The retargetability contract at the engine level: the same core.Engine —
// same dispatcher, online pipeline, code cache, chaining — executes a
// second guest architecture when handed a different port. These tests pin
// the RV64 port's user-level semantics (ecall exit, identity memory,
// wild-access halt) against the Captive and QEMU-baseline personalities.

import (
	"testing"

	"captive/internal/core"
	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
	"captive/internal/hvm"
)

func newRV64Engine(t *testing.T, qemu bool) *core.Engine {
	t.Helper()
	vm, err := hvm.New(hvm.Config{GuestRAMBytes: 8 << 20, CodeCacheBytes: 4 << 20, PTPoolBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var e *core.Engine
	if qemu {
		e, err = core.NewQEMU(vm, rv64.Port{}, rv64.MustModule())
	} else {
		e, err = core.New(vm, rv64.Port{}, rv64.MustModule())
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runRV64 assembles and runs an RV64 program to its ecall exit.
func runRV64(t *testing.T, e *core.Engine, p *rvasm.Program) {
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
	if h, code := e.Halted(); !h || code != 0 {
		t.Fatalf("guest did not exit cleanly: halted=%v code=%#x", h, code)
	}
}

func rv64Factorial() *rvasm.Program {
	p := rvasm.New(0x1000)
	p.Li(10, 12)
	p.Li(11, 1)
	p.Label("loop")
	p.Mul(11, 11, 10)
	p.Addi(10, 10, -1)
	p.Bne(10, rvasm.X0, "loop")
	p.Ecall()
	return p
}

func TestRV64CaptiveEngine(t *testing.T) {
	for _, qemu := range []bool{false, true} {
		e := newRV64Engine(t, qemu)
		runRV64(t, e, rv64Factorial())
		if e.Reg(11) != 479001600 {
			t.Errorf("qemu=%v: 12! = %d, want 479001600", qemu, e.Reg(11))
		}
		if e.GuestInstrs() != 39 {
			t.Errorf("qemu=%v: retired %d instructions, want 39", qemu, e.GuestInstrs())
		}
		if !qemu && e.Metrics().BlockChains == 0 {
			t.Error("expected block chaining on the RV64 loop back-edge")
		}
	}
}

// TestRV64LazyMaterializationRegression pins the emitter fix for the O4
// cross-block hazard the RV64 difftest exposed: a bank read created in the
// entry block and consumed in both arms of a branch (the rem dividend after
// O4 local propagation) must be materialized where it dominates both arms.
func TestRV64LazyMaterializationRegression(t *testing.T) {
	p := rvasm.New(0x1000)
	p.Li(19, 0x12e0)
	p.Li(25, 0xad2f4)
	p.Rem(12, 19, 25) // dividend < divisor: result is the dividend itself
	p.Li(20, 0)
	p.Rem(13, 19, 20) // division by zero: rem yields the dividend
	p.Div(14, 19, 20) // division by zero: div yields -1
	p.Ecall()
	for _, qemu := range []bool{false, true} {
		e := newRV64Engine(t, qemu)
		runRV64(t, e, p)
		if e.Reg(12) != 0x12e0 || e.Reg(13) != 0x12e0 || e.Reg(14) != ^uint64(0) {
			t.Errorf("qemu=%v: x12=%#x x13=%#x x14=%#x", qemu, e.Reg(12), e.Reg(13), e.Reg(14))
		}
	}
}

// TestRV64PagedSupervisorBoot pins the full-system path at the engine
// level: an M-mode boot builds sv39 page tables with ordinary stores,
// installs mtvec, enables satp and mrets into S-mode; the paged body takes
// a store page fault on a read-only page, the M handler records the
// syndrome and skips the store, and the sentinel ecall exits cleanly — on
// both the Captive and QEMU personalities, without any core changes (the
// retargetability invariant of the port layer).
func TestRV64PagedSupervisorBoot(t *testing.T) {
	const (
		root = 0x700000
		l1   = 0x701000
	)
	pte := func(pa, bits uint64) uint64 { return pa>>12<<10 | bits }
	p := rvasm.New(0x1000)
	st := func(addr, v uint64) {
		p.Li(6, v)
		p.Li(7, addr)
		p.Sd(6, 7, 0)
	}
	leaf := uint64(rv64.PTEV | rv64.PTEA | rv64.PTED)
	st(root, pte(l1, rv64.PTEV))
	st(l1, pte(0, leaf|rv64.PTER|rv64.PTEW|rv64.PTEX))
	st(l1+8, pte(0x200000, leaf|rv64.PTER)) // 2..4 MiB read-only
	p.La(6, "handler")
	p.Csrw(rv64.CSRMtvec, 6)
	p.Li(6, rv64.SatpModeSv39<<60|root>>12)
	p.Csrw(rv64.CSRSatp, 6)
	p.SfenceVma()
	p.Li(6, rv64.PrivS<<rv64.MstatusMPPShift)
	p.Csrw(rv64.CSRMstatus, 6)
	p.La(6, "super")
	p.Csrw(rv64.CSRMepc, 6)
	p.Mret()
	p.Label("super") // S-mode, paged
	p.Li(10, 0x200000)
	p.Ld(11, 10, 0) // read allowed
	p.Sd(11, 10, 0) // store page fault -> handler skips
	p.Li(12, 0x51)  // resumed here
	p.Ecall()       // sentinel-free exit: handler clears mtvec on ecall
	p.Label("handler")
	p.Csrr(20, rv64.CSRMcause)
	p.Li(22, rv64.CauseEcallS)
	p.Beq(20, 22, "exit")
	p.Csrr(21, rv64.CSRMtval) // fault path only: keep the fault's tval
	p.Csrr(23, rv64.CSRMepc)
	p.Addi(23, 23, 4)
	p.Csrw(rv64.CSRMepc, 23)
	p.Mret()
	p.Label("exit")
	p.Csrw(rv64.CSRMtvec, rvasm.X0)
	p.Ecall()
	for _, qemu := range []bool{false, true} {
		e := newRV64Engine(t, qemu)
		runRV64(t, e, p)
		if e.Reg(12) != 0x51 {
			t.Errorf("qemu=%v: body did not resume past the fault: x12=%#x", qemu, e.Reg(12))
		}
		sys := rv64.RawSys(e.Sys())
		if sys == nil {
			t.Fatal("engine Sys is not the RV64 system")
		}
		if e.Reg(20) != rv64.CauseEcallS || e.Reg(21) != 0x200000 {
			t.Errorf("qemu=%v: recorded cause=%d tval=%#x (want final ecall-S after a store fault at 0x200000)",
				qemu, e.Reg(20), e.Reg(21))
		}
		if sys.Satp>>60 != rv64.SatpModeSv39 {
			t.Errorf("qemu=%v: satp=%#x", qemu, sys.Satp)
		}
	}
}

// TestRV64WildAccessHalts pins the user-level exception semantics: an
// out-of-range access has no handler to vector to, so the port halts the
// machine with its data-abort exit code.
func TestRV64WildAccessHalts(t *testing.T) {
	p := rvasm.New(0x1000)
	p.Li(5, 0x7FFFFFFF00000000)
	p.Ld(6, 5, 0)
	p.Ecall()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	e := newRV64Engine(t, false)
	if err := e.LoadImage(img, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2_000_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h, code := e.Halted(); !h || code != rv64.ExitDataAbort {
		t.Fatalf("halted=%v code=%#x, want data-abort exit %#x", h, code, uint64(rv64.ExitDataAbort))
	}
}
