package core

import (
	"sort"

	"captive/internal/metrics"
	"captive/internal/trace"
	"captive/internal/vx64"
)

// The engine side of the introspection layer (internal/trace): attaching a
// recorder, the always-on hot-block profile, and the unified metrics
// snapshot. Everything here observes; nothing charges simulated cycles or
// mutates architectural state, so the deci-cycle model and every
// difftest-compared value are bit-identical with observation on or off.

// SetTrace attaches a trace recorder (nil detaches). Block-entry events are
// produced by the PROFCNT marker inside translated code via the CPU's
// TraceBlock hook, which is installed only when that kind is enabled — with
// it disabled the hook is nil and the marker costs one pointer compare.
func (e *Engine) SetTrace(r *trace.Recorder) {
	e.rec = r
	if r.Wants(trace.BlockEnter) {
		e.cpu.TraceBlock = func() {
			e.record(trace.BlockEnter, 0, e.cpu.R[vx64.RPC], 0)
		}
	} else {
		e.cpu.TraceBlock = nil
	}
}

// record emits a trace event stamped with the virtual clock. Every trace
// site in the engine goes through it, so the clock is read only when the
// recorder wants the kind: in parallel mode VirtualTime loads every
// sibling's published retire count, which that sibling rewrites on every
// dispatcher round trip, and a disabled recorder must not make the harts
// share those lines.
func (e *Engine) record(k trace.Kind, arg uint8, pc, addr uint64) {
	if e.rec.Wants(k) {
		e.rec.Emit(k, arg, e.VirtualTime(), pc, addr)
	}
}

// BlockProfile is one row of the hot-block profile: a guest block (by start
// PC) with its execution count and the simulated deci-cycles attributed to
// it by marker-to-marker accounting. Unlike the old dispatcher-side
// profiler this is collected from inside translated code, so it stays exact
// with chaining and superblocks enabled.
type BlockProfile struct {
	PC     uint64
	Runs   uint64
	Cycles uint64
}

// ProfileSnapshot returns the current hot-block profile, hottest (most
// attributed cycles) first, aggregated by guest PC across retranslations.
// The profile is always on — the arena counters are bumped by the PROFCNT
// instruction regardless of tracing — so this is callable at any point;
// it is the input shape of ROADMAP item 4's region selection.
func (e *Engine) ProfileSnapshot() []BlockProfile {
	e.cpu.ProfPause()
	agg := make(map[uint64]int)
	var out []BlockProfile
	for slot, pc := range e.sh.profPC {
		cell := e.cpu.Prof[slot]
		if cell.Runs == 0 && cell.Cycles == 0 {
			continue
		}
		i, ok := agg[pc]
		if !ok {
			i = len(out)
			agg[pc] = i
			out = append(out, BlockProfile{PC: pc})
		}
		out[i].Runs += cell.Runs
		out[i].Cycles += cell.Cycles
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// ProfileDecay ages every profile cell by the given right shift, so
// long-running consumers (region selection, a future captived) can favour
// recent heat without resetting history. Decay(0) is a no-op.
func (e *Engine) ProfileDecay(shift uint) {
	e.cpu.ProfPause()
	for i := range e.cpu.Prof {
		e.cpu.Prof[i].Runs >>= shift
		e.cpu.Prof[i].Cycles >>= shift
	}
}

// Metrics returns the unified metrics snapshot of this engine: its own
// counters plus the clocks and the host CPU's counters.
func (e *Engine) Metrics() metrics.Snapshot {
	m := e.stats
	m.Engine = "captive"
	if e.Kind == BackendQEMU {
		m.Engine = "qemu"
	}
	m.GuestInstrs = e.GuestInstrs()
	m.VirtualTime = e.VirtualTime()
	cs := &e.cpu.Stats
	m.SimDeciCycles = cs.Cycles
	m.HostInsts = cs.Insts
	m.HostTLBHits = cs.TLBHits
	m.HostTLBMisses = cs.TLBMisses
	m.HostPageFault = cs.Faults
	m.HostHelpers = cs.Helpers
	return m
}
