package difftest

import (
	"encoding/binary"
	"testing"

	"captive/internal/device"
	"captive/internal/guest/ga64"
	gasm "captive/internal/guest/ga64/asm"
	"captive/internal/guest/rv64"
	"captive/internal/guest/rv64/asm"
)

// --- directed cross-engine scenarios ------------------------------------------

// checkDirectedGA64 runs a handcrafted GA64 program (image + handler
// image) across the full engine matrix, requires bit-identical state
// everywhere, and returns the golden state for scenario assertions.
func checkDirectedGA64(t *testing.T, name string, p, h *gasm.Program) State {
	t.Helper()
	img, err := p.Assemble()
	if err != nil {
		t.Fatalf("%s: assemble: %v", name, err)
	}
	var himg []byte
	if h != nil {
		if himg, err = h.Assemble(); err != nil {
			t.Fatalf("%s: assemble handler: %v", name, err)
		}
	}
	return checkDirected(t, IRQ, name, &Program{Image: img, Handler: himg})[0]
}

// checkDirectedRV64IRQ is the RV64 analog on the interrupt lane (the
// compared state includes mideleg/mie/mip).
func checkDirectedRV64IRQ(t *testing.T, name string, p *asm.Program) State {
	t.Helper()
	img, err := p.Assemble()
	if err != nil {
		t.Fatalf("%s: assemble: %v", name, err)
	}
	return checkDirected(t, RV64IRQ, name, &Program{Image: img})[0]
}

// sigWord reads a 64-bit word of the GA64 signature block out of the
// probed data window.
func sigWord(st State, pa uint64) uint64 {
	return binary.LittleEndian.Uint64(st.Data[pa-ProbeStart:])
}

// TestWFIExitUnified pins the unified WFI semantics with no wake source:
// on every engine, both guests, WFI with nothing armed is a clean halt
// with exit code 0 — not a hang and not a sentinel code.
func TestWFIExitUnified(t *testing.T) {
	p := gasm.New(Org)
	p.MovI(0, HandlerBase)
	p.Msr(ga64.SysVBAR, 0)
	p.Wfi()
	p.Hlt(0x77) // must never be reached
	h := gasm.New(HandlerBase)
	h.Eret()
	st := checkDirectedGA64(t, "ga64-wfi-halt", p, h)
	if st.ExitCode != 0 {
		t.Fatalf("ga64 wfi halt: exit code %#x, want 0", st.ExitCode)
	}

	q := asm.New(RVOrg)
	q.Wfi()
	q.Li(10, 0x77) // must never be reached
	q.Ecall()
	rst := checkDirectedRV64IRQ(t, "rv64-wfi-halt", q)
	if rst.ExitCode != 0 {
		t.Fatalf("rv64 wfi halt: exit code %#x, want 0", rst.ExitCode)
	}
}

// gaDirectedHandler builds a minimal GA64 vector table for the directed
// timer scenarios: SVCs bounce, the IRQ slot counts deliveries at
// gaSigCount, folds ISR and CNTVCT into gaSig, advances the compare
// register far past now (so the level-triggered line drops) and returns.
func gaDirectedHandler() *gasm.Program {
	h := gasm.New(HandlerBase)
	h.Eret()
	for i := 0; i < 31; i++ {
		h.Nop()
	}
	h.B("virq")
	h.Label("virq")
	h.MovI(2, gaSig)
	h.Ldr(3, 2, 0)
	h.Lsl(3, 3, 3)
	h.Mrs(4, ga64.SysISR)
	h.Add(3, 3, 4)
	h.Mrs(4, ga64.SysCNTVCT)
	h.Add(3, 3, 4)
	h.Str(3, 2, 0)
	h.Ldr(3, 2, 8)
	h.AddI(3, 3, 1)
	h.Str(3, 2, 8)
	h.Mrs(4, ga64.SysCNTVCT)
	h.MovI(2, 100000)
	h.Add(4, 4, 2)
	h.MovI(2, gaTimerPA)
	h.Str(4, 2, device.TimerCmp)
	h.Eret()
	return h
}

// gaDirectedPrologue emits the common boot of the directed scenarios:
// vectors installed, signature block cleared, x9 = timer base.
func gaDirectedPrologue(p *gasm.Program) {
	p.MovI(0, HandlerBase)
	p.Msr(ga64.SysVBAR, 0)
	p.MovI(2, gaSig)
	p.Movz(3, 0, 0)
	p.Str(3, 2, 0)
	p.Str(3, 2, 8)
	p.MovI(9, gaTimerPA)
}

// TestTimerEdgeCases pins the timer's delivery edges across the full GA64
// engine matrix: a compare value already in the past fires on enable; a
// compare written in the past while enabled fires immediately; enabling
// the line after the timer expired still delivers (level-triggered, not
// edge); and a masked pending line is observable through ISR, delivers on
// unmask, and drops once the compare register moves past the count.
func TestTimerEdgeCases(t *testing.T) {
	t.Run("compare-in-past-fires-on-enable", func(t *testing.T) {
		p := gasm.New(Org)
		gaDirectedPrologue(p)
		p.MovI(3, 1)
		p.Msr(ga64.SysIRQEN, 3)
		p.Str(3, 9, device.TimerCtrl) // cmp == 0 is long past: line rises now
		p.BNext()                     // block boundary: the injection point
		p.Nop()
		p.Hlt(0)
		st := checkDirectedGA64(t, "compare-in-past", p, gaDirectedHandler())
		if n := sigWord(st, gaSigCount); n != 1 {
			t.Fatalf("deliveries = %d, want 1", n)
		}
	})

	t.Run("compare-written-in-past-fires", func(t *testing.T) {
		p := gasm.New(Org)
		gaDirectedPrologue(p)
		p.MovI(3, 1)
		p.Msr(ga64.SysIRQEN, 3)
		p.MovI(4, 1<<40)
		p.Str(4, 9, device.TimerCmp) // armed far in the future
		p.Str(3, 9, device.TimerCtrl)
		p.BNext()
		p.Movz(4, 1, 0)
		p.Str(4, 9, device.TimerCmp) // rewritten into the past: fires now
		p.BNext()
		p.Nop()
		p.Hlt(0)
		st := checkDirectedGA64(t, "compare-rewritten", p, gaDirectedHandler())
		if n := sigWord(st, gaSigCount); n != 1 {
			t.Fatalf("deliveries = %d, want 1", n)
		}
	})

	t.Run("enable-after-expiry-delivers", func(t *testing.T) {
		p := gasm.New(Org)
		gaDirectedPrologue(p)
		p.Movz(4, 1, 0)
		p.Str(4, 9, device.TimerCmp)
		p.MovI(3, 1)
		p.Str(3, 9, device.TimerCtrl) // expired, but IRQEN still masks it
		p.BNext()
		p.Nop()
		p.BNext()
		p.Msr(ga64.SysIRQEN, 3) // line was high all along: delivers now
		p.BNext()
		p.Nop()
		p.Hlt(0)
		st := checkDirectedGA64(t, "enable-after-expiry", p, gaDirectedHandler())
		if n := sigWord(st, gaSigCount); n != 1 {
			t.Fatalf("deliveries = %d, want 1", n)
		}
	})

	t.Run("level-not-edge", func(t *testing.T) {
		p := gasm.New(Org)
		gaDirectedPrologue(p)
		p.MovI(3, 1)
		p.Msr(ga64.SysDAIF, 3)
		p.Msr(ga64.SysIRQEN, 3)
		p.Movz(4, 1, 0)
		p.Str(4, 9, device.TimerCmp)
		p.Str(3, 9, device.TimerCtrl)
		p.BNext()
		p.Mrs(20, ga64.SysISR) // pending while masked
		p.Movz(3, 0, 0)
		p.Msr(ga64.SysDAIF, 3) // unmask: delivery at the next boundary
		p.BNext()
		p.Mrs(21, ga64.SysISR) // handler advanced cmp: line dropped
		p.Hlt(0)
		st := checkDirectedGA64(t, "level-not-edge", p, gaDirectedHandler())
		if n := sigWord(st, gaSigCount); n != 1 {
			t.Fatalf("deliveries = %d, want 1", n)
		}
		l := regLayout()
		x20 := binary.LittleEndian.Uint64(st.Regs[l.x+20*8:])
		x21 := binary.LittleEndian.Uint64(st.Regs[l.x+21*8:])
		if x20 != 1 || x21 != 0 {
			t.Fatalf("ISR before/after = %d/%d, want 1/0", x20, x21)
		}
	})
}

// TestRV64WFIIdleSkip pins the idle-skip path: with the machine timer
// enabled in mie but globally masked (mstatus.MIE = 0), WFI must not halt
// and must not deliver — it warps virtual time to the deadline and
// resumes, observable through the MMIO counter.
func TestRV64WFIIdleSkip(t *testing.T) {
	p := asm.New(RVOrg)
	p.Li(5, RVBuf0)
	p.Li(30, rvTimerPA)
	p.Li(29, 100000)
	p.Sd(29, 30, device.TimerCmp)
	p.Li(29, 1)
	p.Sd(29, 30, device.TimerCtrl)
	p.Li(29, rv64.MipMTIP)
	p.Csrw(rv64.CSRMie, 29) // enabled in mie, but mstatus.MIE stays 0
	p.Wfi()                 // idle-skip: time warps to 100000
	p.Ld(10, 30, device.TimerCount)
	p.Sd(10, 5, 0)
	p.Sd(asm.X0, 30, device.TimerCtrl) // quiesce before exit
	p.Ecall()
	st := checkDirectedRV64IRQ(t, "rv64-wfi-idleskip", p)
	warped := binary.LittleEndian.Uint64(st.Data[RVBuf0-RVProbeStart:])
	if warped < 100000 {
		t.Fatalf("counter after idle-skip wfi = %d, want >= 100000", warped)
	}
	if st.ExitCode != 0 {
		t.Fatalf("exit code %#x, want 0", st.ExitCode)
	}
}

// TestRV64TimerToMtvec pins a minimal machine-timer delivery: the body
// spins until the interrupt rewrites x20, proving the trap vectored with
// the interrupt cause and that mepc points back into the loop.
func TestRV64TimerToMtvec(t *testing.T) {
	p := asm.New(RVOrg)
	p.Li(20, 0)
	p.La(30, "mtrap")
	p.Csrw(rv64.CSRMtvec, 30)
	p.Li(30, rv64.MipMTIP)
	p.Csrw(rv64.CSRMie, 30)
	p.Li(30, rvTimerPA)
	p.Li(29, 60)
	p.Sd(29, 30, device.TimerCmp)
	p.Li(29, 1)
	p.Sd(29, 30, device.TimerCtrl)
	p.Li(30, rv64.MstatusMIE)
	p.Csrrs(asm.X0, rv64.CSRMstatus, 30)
	p.Label("spin")
	p.Beq(20, asm.X0, "spin") // interrupt breaks the loop by setting x20
	p.Li(31, rvSentinel)
	p.Ecall()
	p.Label("mtrap")
	p.Csrr(30, rv64.CSRMcause)
	p.Bge(30, asm.X0, "msync")
	p.Csrr(20, rv64.CSRMcause) // x20 = interrupt cause (breaks the spin)
	p.Li(30, rvTimerPA)
	p.Sd(asm.X0, 30, device.TimerCtrl)
	p.Mret()
	p.Label("msync")
	p.Csrw(rv64.CSRMtvec, asm.X0)
	p.Ecall()
	st := checkDirectedRV64IRQ(t, "rv64-timer-mtvec", p)
	l := rv64.MustModule().Registry.Bank("X").Offset
	x20 := binary.LittleEndian.Uint64(st.Regs[l+20*8:])
	if x20 != rv64.CauseInterrupt|rv64.IRQMTimer {
		t.Fatalf("x20 = %#x, want interrupt cause %#x", x20, rv64.CauseInterrupt|rv64.IRQMTimer)
	}
	if st.ExitCode != 0 {
		t.Fatalf("exit code %#x, want 0", st.ExitCode)
	}
}
