// Package smp is the deterministic SMP scheduler shared by the execution
// engines (internal/core) and the golden interpreter cluster
// (internal/interp): N harts driven round-robin in fixed retired-instruction
// quanta over one virtual clock. Because every engine schedules with the
// same quantum over the same clock, the interleaving of guest instructions
// is bit-identical everywhere — which is what lets the SMP difftest lane
// compare multi-vCPU runs across the interpreter, Captive at every offline
// level and the QEMU baseline.
//
// The package also owns the run contract every engine shares at any hart
// count — the budget unit and its expiry sentinel — the hart itself (Guest):
// its wiring, run state and event counters, and the guest rules every engine
// applies through it — and the machine (Machine), the list of a machine's
// harts with the engine-independent half of the machine seam.
package smp

import (
	"errors"

	"captive/internal/device"
	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/trace"
)

// DeciCyclesPerStep fixes the one budget unit of every engine. A run budget
// counts interpreter steps; the DBT engines bound each hart's simulated time
// at this many deci-cycles per step (2,000,000 steps = 4,000,000,000
// deci-cycles, the bounds the difftest lanes always used).
const DeciCyclesPerStep = 2000

// ErrBudget is the one budget-expiry sentinel: every engine's run returns it
// (or an error wrapping it, matched with errors.Is) when the budget runs out
// before the guest halts.
var ErrBudget = errors.New("run budget exhausted before the guest halted")

// RunRR drives the harts round-robin until every hart has halted or an error
// occurs. slice(i) runs hart i until at least one quantum of further
// instructions has retired, the hart halts or parks, or an engine error
// occurs. Slices end exactly at block boundaries: the pre-block deadline
// check runs a block whose entry count is below the slice end to
// completion, so every engine overshoots by the identical amount.
//
// When every live hart is parked in wfi, RunRR skips the shared virtual
// clock to the timer deadline if that can wake one, stamping the skip on
// every hart's trace at the pre-skip time. Otherwise it settles the machine:
// no interrupt source can ever fire again, so all harts halt idle — the
// same resting state a uniprocessor wfi reaches.
func RunRR(harts []*Guest, slice func(i int) error) error {
	for {
		ran, live := false, false
		for i, g := range harts {
			if g.Halted {
				continue
			}
			live = true
			if g.Waiting {
				if !g.wakeableNow() {
					continue
				}
				// The wfi re-executes and completes.
				g.Waiting = false
			}
			if err := slice(i); err != nil {
				return err
			}
			ran = true
		}
		if !live {
			return nil
		}
		if ran {
			continue
		}
		// Every live hart is parked. A timer expiry in the future can only
		// help if it reaches a parked hart that would wake on it.
		now := harts[0].Hooks.CycleCount()
		if cmp, armed := harts[0].Bus.TimerState(); armed && cmp > now && timerCanWake(harts) {
			for _, g := range harts {
				g.Record(trace.WFIIdle, 0, g.PC(), cmp-now)
			}
			harts[0].idle(cmp - now)
			continue
		}
		for _, g := range harts {
			if !g.Halted {
				g.Halt(0)
			}
		}
		return nil
	}
}

func timerCanWake(harts []*Guest) bool {
	for _, g := range harts {
		if !g.Halted && g.Waiting && g.timerWakeable() {
			return true
		}
	}
	return false
}

// Guest is one hart as every engine sees it: the guest state an engine
// executes against, wired to the machine's device bus and virtual clock, and
// the guest rules that act on it. Captive, the QEMU baseline and the golden
// interpreter embed one per hart, so exception injection, interrupt
// delivery, exception return, halt, wfi, device accesses and the trace stamp
// have one definition; an engine adds only its own costs and caches.
type Guest struct {
	// Regs views the hart's guest register file.
	port.Regs
	// Sys is the hart's guest system state and Space its address space.
	// Hooks is what the port calls back into: its HartID is the hart's
	// index on the device bus and its CycleCount the machine's virtual
	// clock.
	Sys   port.Sys
	Space port.Space
	Hooks port.Hooks
	// Mem is the machine's guest RAM and Bus its device bus: the devices
	// and interrupt lines. Every hart of a machine shares both.
	Mem port.RAM
	Bus *device.Bus

	// Halted and ExitCode are set by the guest halt instruction, by a port
	// that terminates the machine on an unvectored exception or interrupt,
	// and by a wfi nothing can wake. Waiting marks a hart parked in wfi
	// under RunRR; its PC stays on the wfi, which re-executes on wake.
	Halted   bool
	ExitCode uint64
	Waiting  bool

	// Exceptions counts taken guest exceptions (halting ones included),
	// IRQs delivered interrupts and DeviceAccesses emulated device accesses.
	Exceptions, IRQs, DeviceAccesses uint64

	devBase uint64             // guest-physical base of the device window
	idle    func(delta uint64) // skips the machine's virtual clock
	// rec is the attached trace recorder; nil (the default) records nothing,
	// and every emission site (Record) is a nil compare in that state.
	rec *trace.Recorder
}

// Init wires the hart: a register file laid out per m in file, fresh system
// state for guest p translating over ram, the machine's device bus, and the
// hooks h (hart index, virtual clock, translation-change callback) with the
// hart's interrupt lines added. idle advances the machine's virtual clock
// over time every hart spends idle in wfi.
func (g *Guest) Init(p port.Port, m *gen.Module, file []byte, ram port.RAM, bus *device.Bus, h port.Hooks, idle func(delta uint64)) {
	g.Regs = port.NewRegs(p, m, file)
	g.Sys = p.NewSys()
	g.Space = port.NewSpace(p, g.Sys, ram)
	g.Mem, g.Bus = ram, bus
	g.devBase = p.DeviceBase()
	g.idle = idle
	h.TimerLine, h.SoftLine = g.TimerLine, g.softLine
	g.Hooks = h
}

// LoadImage copies an image into guest RAM and points the hart at entry.
func (g *Guest) LoadImage(data []byte, pa, entry uint64) error {
	if err := g.Mem.Load(data, pa); err != nil {
		return err
	}
	g.SetPC(entry)
	return nil
}

// SetTrace attaches a trace recorder (nil detaches).
func (g *Guest) SetTrace(r *trace.Recorder) { g.rec = r }

// Record emits a trace event stamped with the virtual clock. Every trace
// site of every engine goes through it, so the clock is read only when the
// recorder wants the kind: in parallel mode the clock loads every sibling's
// published retire count, which that sibling rewrites on every dispatcher
// round trip, and a disabled recorder must not make the harts share those
// lines.
func (g *Guest) Record(k trace.Kind, arg uint8, pc, addr uint64) {
	if g.rec.Wants(k) {
		g.rec.Emit(k, arg, g.Hooks.CycleCount(), pc, addr)
	}
}

// Console returns the guest UART output.
func (g *Guest) Console() string { return g.Bus.Console() }

// Halt stops the hart with the given exit code; it never runs again.
func (g *Guest) Halt(code uint64) { g.Halted, g.ExitCode = true, code }

// enter continues at an exception or interrupt entry: the handler, or a
// halt when the port terminates the machine.
func (g *Guest) enter(e port.Entry) {
	if e.Halt {
		g.Halt(e.Code)
	} else {
		g.SetPC(e.PC)
	}
}

// Raise injects a guest exception through the port: full-system guests
// vector to their handler; user-level guests halt with the port's exit code.
func (g *Guest) Raise(ex port.Exception) {
	g.Record(trace.Exception, uint8(ex.Kind), ex.PC, ex.Addr)
	g.Exceptions++
	g.enter(g.Sys.Take(ex, g.NZCV(), &g.Hooks))
}

// DeliverIRQ takes a pending interrupt the guest accepts, and reports
// whether it did. Engines call it only at a block boundary — the
// interpreter before it scans a block, the DBT dispatchers (which the
// block-entry deadline check returns to) before they look one up — so the
// interrupted PC, the preferred return address, is always a block start and
// delivery lands on the same retired-instruction count on every engine.
func (g *Guest) DeliverIRQ() bool {
	line := g.TimerLine()
	if !g.Sys.PendingIRQ(line, &g.Hooks) {
		return false
	}
	pc := g.PC()
	g.Record(trace.IRQ, trace.LineArg(line), pc, 0)
	g.IRQs++
	g.enter(g.Sys.TakeIRQ(pc, line, g.NZCV(), &g.Hooks))
	return true
}

// ERet performs the exception return: the port restores the privilege
// level and returns the flags and the PC the hart continues at.
func (g *Guest) ERet() {
	pc, nzcv := g.Sys.ERet(&g.Hooks)
	g.SetNZCV(nzcv)
	g.SetPC(pc)
}

// Device performs a data access the address space classified as a device
// access (port.Access.Device) at guest-physical pa, by the instruction at
// pc: the access is stamped and counted, then reaches the device bus at its
// offset in the device window. A read returns the value read; a write
// stores v and returns 0.
func (g *Guest) Device(pa uint64, width uint8, write bool, v, pc uint64) uint64 {
	g.Record(trace.MMIO, trace.MMIOArg(width, write), pc, pa)
	g.DeviceAccesses++
	if write {
		g.Bus.Write(pa-g.devBase, width, v)
		return 0
	}
	return g.Bus.Read(pa-g.devBase, width)
}

// timerWired reports whether the machine timer drives this hart: only hart
// 0 is wired to it (a uniprocessor's one hart is hart 0).
func (g *Guest) timerWired() bool { return g.Hooks.HartID == 0 }

// TimerLine is the level of the hart's timer input.
func (g *Guest) TimerLine() bool { return g.timerWired() && g.Bus.IRQPending() }

// softLine is the level of the hart's software-interrupt (IPI) input.
func (g *Guest) softLine() bool { return g.Bus.SoftPending(g.Hooks.HartID) }

// Timer returns the compare value of the timer wired to the hart and
// whether it is armed; a hart it is not wired to sees it disarmed.
func (g *Guest) Timer() (cmp uint64, armed bool) {
	if !g.timerWired() {
		return 0, false
	}
	return g.Bus.TimerState()
}

// wakeableNow reports whether an interrupt source is pending and enabled
// for the hart right now (the architectural wfi wake rule, ignoring global
// masks).
func (g *Guest) wakeableNow() bool { return g.Sys.WFIWake(g.TimerLine(), &g.Hooks) }

// timerWakeable reports whether a future timer-line rise could wake the
// hart (only the hart wired to the timer line can say yes).
func (g *Guest) timerWakeable() bool { return g.timerWired() && g.Sys.WFIWake(true, &g.Hooks) }

// WFI is what a wfi instruction does.
type WFI uint8

// Wfi outcomes.
const (
	WFIComplete WFI = iota // complete as a nop
	WFIRetry               // complete as a spurious wakeup (parallel harts)
	WFIPark                // park with the PC on the wfi (RunRR)
	WFISkip                // skip virtual time, then complete (one hart)
	WFIHalt                // halt with exit code 0 (one hart)
)

// WFI executes the wfi at pc and returns what it did; parallel is set while
// the hart runs on its own goroutine beside its siblings, alone when the
// machine has one hart. With a source pending and enabled the wfi
// completes; delivery, if the global mask allows, follows at the next block
// boundary. Otherwise a parallel hart retries through its dispatcher: a
// sibling may raise its IPI line at any moment, and virtual time cannot be
// skipped while siblings advance it. A hart of a larger machine runs under
// RunRR and parks; RunRR wakes it (the wfi re-executes and completes),
// skips the shared clock or settles the machine. A lone hart skips to an
// armed timer whose interrupt is enabled, and halts when no enabled source
// can ever wake it.
func (g *Guest) WFI(pc uint64, parallel, alone bool) WFI {
	switch {
	case g.wakeableNow():
		return WFIComplete
	case parallel:
		return WFIRetry
	case !alone:
		g.Waiting = true
		g.SetPC(pc)
		return WFIPark
	}
	if cmp, armed := g.Timer(); armed && g.timerWakeable() {
		if now := g.Hooks.CycleCount(); cmp > now {
			g.Record(trace.WFIIdle, 0, pc, cmp-now)
			g.idle(cmp - now)
			return WFISkip
		}
	}
	g.Halt(0)
	return WFIHalt
}

// Machine is the list of a machine's harts, which share one guest RAM and
// one device bus. The engines' machines (core.SMP, interp.Cluster) embed it
// for the half of the machine seam (internal/machine) no engine implements
// differently; each adds its run modes, metrics and retire counts.
type Machine struct {
	Harts []*Guest
}

// N returns the hart count.
func (m *Machine) N() int { return len(m.Harts) }

// Hart returns hart i.
func (m *Machine) Hart(i int) *Guest { return m.Harts[i] }

// LoadImage copies an image into guest RAM and points every hart at entry.
func (m *Machine) LoadImage(data []byte, pa, entry uint64) error {
	if err := m.LoadData(data, pa); err != nil {
		return err
	}
	for _, g := range m.Harts {
		g.SetPC(entry)
	}
	return nil
}

// LoadData copies bytes into guest RAM.
func (m *Machine) LoadData(data []byte, pa uint64) error { return m.Harts[0].Mem.Load(data, pa) }

// ReadRAM copies guest RAM starting at pa into dst.
func (m *Machine) ReadRAM(pa uint64, dst []byte) error { return m.Harts[0].Mem.Copy(dst, pa) }

// Exit reports whether every hart has halted, and hart 0's exit code.
func (m *Machine) Exit() (bool, uint64) {
	for _, g := range m.Harts {
		if !g.Halted {
			return false, 0
		}
	}
	return true, m.Harts[0].ExitCode
}

// Console returns the guest UART output.
func (m *Machine) Console() string { return m.Harts[0].Console() }

// SetTrace attaches a trace recorder to hart i (nil detaches).
func (m *Machine) SetTrace(i int, r *trace.Recorder) { m.Harts[i].SetTrace(r) }
