// Dispatch hot-path tests: the engine's steady-state execution loop must
// be allocation-free (the CI dispatch-alloc-gate job gates on this), and
// superblock/translation caches must stay coherent when already executed
// code is overwritten through the engines' SMC machinery.
package core_test

import (
	"testing"

	"captive/internal/core"
	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
	"captive/internal/trace"
)

// loadHotLoop installs a never-ending two-block loop (back-edge chains on
// both engines) and warms it up until every block is translated, chained
// and superblock-cached, and all host mappings are demand-populated.
func loadHotLoop(t testing.TB, e *core.Engine) {
	t.Helper()
	p := asm.New(0x1000)
	p.MovI(0, 1)
	p.MovI(1, 0)
	p.MovI(4, 0x200000) // data page for load/store traffic
	p.Label("loop")
	p.Add(1, 1, 0)
	p.Ldr(2, 4, 0)
	p.Add(2, 2, 1)
	p.Str(2, 4, 0)
	p.Eor(3, 1, 2)
	p.CmpI(3, 0)
	p.BCond(ga64.CondNE, "loop")
	p.B("loop") // unreachable either way: runs forever
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadImage(img, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	warmUp(t, e)
}

// runForever loads a never-ending program and warms it up (warmUp).
func runForever(t testing.TB, e *core.Engine, p *asm.Program) {
	t.Helper()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadImage(img, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	warmUp(t, e)
}

// warmUp runs budget slices of the measurement size until translation
// stops.
func warmUp(t testing.TB, e *core.Engine) {
	t.Helper()
	// Warm up with the measurement slice size until translation stops:
	// every budget expiry re-enters the dispatcher at whatever guest PC
	// the slice ended on, and each distinct mid-loop PC gets its own
	// translation the first time it is dispatched. The set of expiry PCs
	// is bounded by the loop's length, so a few dozen slices saturate it;
	// after that the engine translates nothing and chains nothing new.
	for i := 0; i < 64; i++ {
		if err := e.Run(dispatchSlice); err != core.ErrBudget {
			t.Fatalf("warmup: %v", err)
		}
	}
}

// dispatchSlice is the per-op cycle budget of the steady-state dispatch
// tests; warmup and measurement must use the same slice size so the
// budget-expiry PCs repeat.
const dispatchSlice = 500_000

// TestDispatchSteadyStateAllocFree is the allocation gate: once the loop is
// warm, a full budget slice through dispatcher, chains and superblocks must
// not allocate — on the Captive engine and the QEMU baseline. The unchained
// cases make every loop iteration a dispatcher round trip, as on an SMP
// guest (chaining is off for N > 1).
func TestDispatchSteadyStateAllocFree(t *testing.T) {
	for _, cfg := range []struct {
		name      string
		qemu      bool
		unchained bool
	}{
		{"captive", false, false}, {"qemu", true, false},
		{"captive-unchained", false, true}, {"qemu-unchained", true, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			e := newGA64Engine(t, cfg.qemu)
			e.ChainingOff = cfg.unchained
			loadHotLoop(t, e)
			allocs := testing.AllocsPerRun(50, func() {
				if err := e.Run(dispatchSlice); err != core.ErrBudget {
					t.Fatalf("run: %v", err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state dispatch allocates %.1f times per budget slice, want 0", allocs)
			}
		})
	}
}

// TestSlowPathsAllocFree extends the allocation gate to the engines' slow
// paths on a warm loop: every iteration reads the UART (a device access:
// Captive's host-fault emulation, the baseline's softmmu fill), loads from
// two pages that collide in the softmmu TLB (a fill on every access) and
// loads past guest RAM (an abort, which the handler skips). Neither engine
// allocates: the host CPU records each page fault it raises in its own
// fault record.
func TestSlowPathsAllocFree(t *testing.T) {
	for _, cfg := range []struct {
		name string
		qemu bool
	}{{"captive", false}, {"qemu", true}} {
		t.Run(cfg.name, func(t *testing.T) {
			e := newGA64Engine(t, cfg.qemu)
			h := asm.New(0x8000) // sync-same vector: skip the faulting load
			h.Mrs(3, ga64.SysELR)
			h.AddI(3, 3, 4)
			h.Msr(ga64.SysELR, 3)
			h.Eret()
			himg, err := h.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.LoadUser(himg, 0x8000); err != nil {
				t.Fatal(err)
			}
			p := asm.New(0x1000)
			p.MovI(0, 0x8000)
			p.Msr(ga64.SysVBAR, 0)
			p.MovI(6, ga64.UARTBase)
			p.MovI(7, 0x200000)
			p.MovI(8, 0x300000)   // same softmmu TLB index as 0x200000
			p.MovI(9, 0x0F000000) // past the 8 MiB of guest RAM
			p.Label("loop")
			p.Ldr32(5, 6, 4)
			p.Ldr(2, 7, 0)
			p.Ldr(2, 8, 0)
			p.Ldr(2, 9, 0)
			p.B("loop")
			runForever(t, e, p)
			const runs = 50
			start := e.Metrics()
			allocs := testing.AllocsPerRun(runs, func() {
				if err := e.Run(dispatchSlice); err != core.ErrBudget {
					t.Fatalf("run: %v", err)
				}
			})
			end := e.Metrics()
			if end.MMIOEmulations == start.MMIOEmulations || end.GuestFaults == start.GuestFaults {
				t.Fatalf("the loop took no device accesses or aborts: %+v", end)
			}
			if !cfg.qemu && end.HostFaults == start.HostFaults {
				t.Fatalf("the loop took no host faults: %+v", end)
			}
			if allocs != 0 {
				t.Errorf("slow paths allocate %.1f times per budget slice, want 0", allocs)
			}
		})
	}
}

// TestDispatchTracingAllocFree extends the allocation gate to the
// introspection layer: with a recorder *attached but with no hot-path kinds
// enabled* the steady-state slice must still not allocate (the disabled path
// is a nil hook plus a masked Emit), and with full tracing into the
// preallocated ring sink it must not allocate either. The unchained cases
// pass every block exit through the dispatcher's trace sites.
func TestDispatchTracingAllocFree(t *testing.T) {
	disabled, all := trace.KindMask(trace.Translate), trace.AllKinds
	for _, cfg := range []struct {
		name      string
		qemu      bool
		unchained bool
		mask      uint32
	}{
		{"attached-disabled", false, false, disabled},
		{"enabled-ring", false, false, all},
		{"captive-unchained-attached-disabled", false, true, disabled},
		{"captive-unchained-enabled-ring", false, true, all},
		{"qemu-unchained-attached-disabled", true, true, disabled},
		{"qemu-unchained-enabled-ring", true, true, all},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			e := newGA64Engine(t, cfg.qemu)
			e.ChainingOff = cfg.unchained
			e.SetTrace(trace.NewRecorder(trace.NewRing(4096), cfg.mask))
			loadHotLoop(t, e)
			allocs := testing.AllocsPerRun(50, func() {
				if err := e.Run(dispatchSlice); err != core.ErrBudget {
					t.Fatalf("run: %v", err)
				}
			})
			if allocs != 0 {
				t.Errorf("traced (%s) steady-state dispatch allocates %.1f times per slice, want 0", cfg.name, allocs)
			}
		})
	}
}

// TestTracingInvariance pins the provably-free contract on real execution: a
// program run with full tracing attached retires the same instructions,
// burns the *bit-identical* number of simulated deci-cycles and computes the
// same register state as the untraced run — tracing charges no cycles, ever.
func TestTracingInvariance(t *testing.T) {
	for _, cfg := range []struct {
		name string
		qemu bool
	}{{"captive", false}, {"qemu", true}} {
		t.Run(cfg.name, func(t *testing.T) {
			run := func(rec *trace.Recorder) (uint64, uint64, uint64) {
				e := newGA64Engine(t, cfg.qemu)
				e.SetTrace(rec)
				p := asm.New(0x1000)
				p.MovI(0, 0)
				p.MovI(1, 3)
				p.MovI(2, 50000)
				p.Label("loop")
				p.Add(0, 0, 1)
				p.Eor(1, 0, 2)
				p.SubsI(2, 2, 1)
				p.BCond(ga64.CondNE, "loop")
				p.Hlt(0)
				runCaptive(t, e, p)
				return e.GuestInstrs(), e.Cycles(), e.Reg(0)
			}
			i0, c0, x0 := run(nil)
			ring := trace.NewRing(1 << 16)
			i1, c1, x1 := run(trace.NewRecorder(ring, trace.AllKinds))
			if i0 != i1 || c0 != c1 || x0 != x1 {
				t.Errorf("tracing perturbed the run: instrs %d→%d, cycles %d→%d, x0 %#x→%#x",
					i0, i1, c0, c1, x0, x1)
			}
			if ring.Len() == 0 {
				t.Error("full tracing recorded no events")
			}
		})
	}
}

// BenchmarkDispatchChained reports the steady-state dispatch loop for
// -benchmem runs (the CI dispatch-alloc-gate job fails the build on a
// non-zero allocs/op here). One op is a 500k deci-cycle budget slice.
func BenchmarkDispatchChained(b *testing.B) {
	e := newGA64Engine(b, false)
	loadHotLoop(b, e)
	start := e.Metrics().HostInsts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(dispatchSlice); err != core.ErrBudget {
			b.Fatalf("run: %v", err)
		}
	}
	b.StopTimer()
	retired := e.Metrics().HostInsts - start
	if b.N > 0 {
		b.ReportMetric(float64(retired)/float64(b.N), "host-instrs/op")
	}
}

// BenchmarkDispatchUnchained reports the dispatcher round trip itself: with
// chaining off every loop iteration returns to the dispatcher, as on an SMP
// guest. One op is a 500k deci-cycle budget slice; ns/dispatch divides the
// wall time by the round trips taken. The CI dispatch-alloc-gate job fails
// the build on a non-zero allocs/op here.
func BenchmarkDispatchUnchained(b *testing.B) {
	e := newGA64Engine(b, false)
	e.ChainingOff = true
	loadHotLoop(b, e)
	start := e.Metrics().DispatchLoops
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(dispatchSlice); err != core.ErrBudget {
			b.Fatalf("run: %v", err)
		}
	}
	b.StopTimer()
	if n := e.Metrics().DispatchLoops - start; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/dispatch")
	}
}

// TestEnginePatchedBlockRerun is the engine-level superblock coherence
// test: a program overwrites the first instruction of a routine it has
// already executed, then calls it again. The store trips the SMC machinery
// (host write protection on Captive, dirty tracking on the baseline),
// which invalidates the translation page and — through InvalidateCode —
// every superblock built over it; the re-translated block must execute the
// patched instruction.
func TestEnginePatchedBlockRerun(t *testing.T) {
	for _, cfg := range []struct {
		name string
		qemu bool
	}{{"captive", false}, {"qemu", true}} {
		t.Run(cfg.name, func(t *testing.T) {
			e := newGA64Engine(t, cfg.qemu)
			p := asm.New(0x1000)
			p.BL("patch") // translate + execute the original routine
			p.Mov(20, 7)  // x20 = original x7 (1)
			p.Adr(2, "patch")
			p.MovI(3, uint64(ga64.EncMOVW(ga64.OpMovz, 7, 0, 42)))
			p.Str32(3, 2, 0) // overwrite the routine's first instruction
			p.BL("patch")    // re-execute: must see movz x7, #42
			p.Hlt(0)
			p.Label("patch")
			p.Movz(7, 1, 0) // original: x7 = 1
			p.Ret()
			runCaptive(t, e, p)
			if e.Reg(20) != 1 {
				t.Errorf("original routine: x20 = %d, want 1", e.Reg(20))
			}
			if e.Reg(7) != 42 {
				t.Errorf("patched routine: x7 = %d, want 42 (stale translation or superblock)", e.Reg(7))
			}
			if e.Metrics().SMCInvals == 0 {
				t.Error("SMC invalidation did not fire")
			}
		})
	}
}
