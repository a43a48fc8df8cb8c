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
// count: the budget unit and its expiry sentinel, and each hart's interrupt
// wiring (Lines): which hart the timer drives, what a wfi does in each run
// mode, and when a parked hart may wake.
package smp

import (
	"errors"

	"captive/internal/device"
	"captive/internal/guest/port"
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

// Hart is one virtual CPU as the scheduler sees it. Implementations adapt
// the engine (core.Engine) or interpreter (interp.Machine) hart state.
type Hart interface {
	// Halted reports whether the hart has executed its halt instruction (or
	// been settled by HaltIdle); a halted hart is never scheduled again.
	Halted() bool
	// Waiting reports whether the hart is parked in wfi.
	Waiting() bool
	// WakeableNow reports whether an interrupt source is pending-and-enabled
	// for the parked hart right now (the architectural wfi wake rule,
	// ignoring global masks).
	WakeableNow() bool
	// TimerWakeable reports whether a future timer-line rise could wake the
	// parked hart (only the hart wired to the timer line can say yes).
	TimerWakeable() bool
	// ClearWait unparks the hart; the wfi re-executes and completes.
	ClearWait()
	// HaltIdle settles a hart that no source can ever wake into the halted
	// state with exit code 0 (the machine's resting state).
	HaltIdle()
	// RunSlice executes until at least quantum further instructions have
	// retired, the hart halts or parks, or an engine error occurs. Slices
	// end exactly at block boundaries: the pre-block deadline check runs a
	// block whose entry count is below the slice end to completion, so every
	// engine overshoots by the identical amount.
	RunSlice(quantum uint64) error
}

// Clock is the machine's shared virtual clock as the scheduler sees it.
type Clock interface {
	// VirtualTime returns the current virtual time (total retired
	// instructions across all harts plus skipped idle time).
	VirtualTime() uint64
	// TimerDeadline returns the timer compare value and whether the timer
	// is armed.
	TimerDeadline() (cmp uint64, armed bool)
	// Skip advances virtual time by delta without retiring instructions
	// (the SMP generalization of the single-hart wfi idle skip).
	Skip(delta uint64)
}

// RunRR drives the harts round-robin in fixed quanta until every hart has
// halted or an error occurs. When every live hart is parked in wfi it skips
// virtual time to the timer deadline if that can wake one, and otherwise
// settles the machine: no interrupt source can ever fire again, so all harts
// halt idle — the same resting state a uniprocessor wfi reaches.
func RunRR(harts []Hart, clk Clock, quantum uint64) error {
	for {
		ran, live := false, false
		for _, h := range harts {
			if h.Halted() {
				continue
			}
			live = true
			if h.Waiting() {
				if !h.WakeableNow() {
					continue
				}
				h.ClearWait()
			}
			if err := h.RunSlice(quantum); err != nil {
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
		if cmp, armed := clk.TimerDeadline(); armed && cmp > clk.VirtualTime() && timerCanWake(harts) {
			clk.Skip(cmp - clk.VirtualTime())
			continue
		}
		for _, h := range harts {
			if !h.Halted() {
				h.HaltIdle()
			}
		}
		return nil
	}
}

func timerCanWake(harts []Hart) bool {
	for _, h := range harts {
		if !h.Halted() && h.Waiting() && h.TimerWakeable() {
			return true
		}
	}
	return false
}

// Lines is one hart's interrupt inputs: its index on the machine's device
// bus, and the guest system state that gates them. Every engine wires its
// harts through one, so the timer wiring, the wfi decision and the wake
// predicates have one definition; the hart adapters RunRR drives embed it.
type Lines struct {
	Hart  int
	Bus   *device.Bus
	Sys   port.Sys
	Hooks *port.Hooks // the hart's hooks; CycleCount is the virtual clock
}

// timerWired reports whether the machine timer drives this hart: only hart
// 0 is wired to it (a uniprocessor's one hart is hart 0).
func (l *Lines) timerWired() bool { return l.Hart == 0 }

// TimerLine is the level of the hart's timer input.
func (l *Lines) TimerLine() bool { return l.timerWired() && l.Bus.IRQPending() }

// SoftLine is the level of the hart's software-interrupt (IPI) input.
func (l *Lines) SoftLine() bool { return l.Bus.SoftPending(l.Hart) }

// Timer returns the compare value of the timer wired to the hart and
// whether it is armed; a hart it is not wired to sees it disarmed.
func (l *Lines) Timer() (cmp uint64, armed bool) {
	if !l.timerWired() {
		return 0, false
	}
	return l.Bus.TimerState()
}

// WakeableNow implements Hart.
func (l *Lines) WakeableNow() bool { return l.Sys.WFIWake(l.TimerLine(), l.Hooks) }

// TimerWakeable implements Hart.
func (l *Lines) TimerWakeable() bool { return l.timerWired() && l.Sys.WFIWake(true, l.Hooks) }

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

// WFI decides what a wfi does on the hart, and for WFISkip the virtual
// time to skip; parallel is set while the hart runs on its own goroutine
// beside its siblings, alone when the machine has one hart. With a source
// pending and enabled the wfi completes; delivery, if the global mask
// allows, follows at the next block boundary. Otherwise a parallel hart
// retries through its dispatcher: a sibling may raise its IPI line at any
// moment, and virtual time cannot be skipped while siblings advance it. A
// hart of a larger machine runs under RunRR and parks; RunRR wakes it (the
// wfi re-executes and completes), skips the shared clock or settles the
// machine. A lone hart skips to an armed timer whose interrupt is enabled,
// and halts when no enabled source can ever wake it.
func (l *Lines) WFI(parallel, alone bool) (WFI, uint64) {
	switch {
	case l.WakeableNow():
		return WFIComplete, 0
	case parallel:
		return WFIRetry, 0
	case !alone:
		return WFIPark, 0
	}
	if cmp, armed := l.Timer(); armed && l.Sys.WFIWake(true, l.Hooks) {
		if now := l.Hooks.CycleCount(); cmp > now {
			return WFISkip, cmp - now
		}
	}
	return WFIHalt, 0
}
