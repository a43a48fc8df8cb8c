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
	"captive/internal/hvm"
	"captive/internal/trace"
)

// newKindEngine builds a Captive or QEMU-baseline engine for the dispatch
// tests.
func newKindEngine(t testing.TB, qemu bool) *core.Engine {
	t.Helper()
	vm, err := hvm.New(hvm.Config{GuestRAMBytes: 8 << 20, CodeCacheBytes: 4 << 20, PTPoolBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var e *core.Engine
	if qemu {
		e, err = core.NewQEMU(vm, ga64.Port{}, ga64.MustModule())
	} else {
		e, err = core.New(vm, ga64.Port{}, ga64.MustModule())
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

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
// not allocate — on the Captive engine and the QEMU baseline.
func TestDispatchSteadyStateAllocFree(t *testing.T) {
	for _, cfg := range []struct {
		name string
		qemu bool
	}{{"captive", false}, {"qemu", true}} {
		t.Run(cfg.name, func(t *testing.T) {
			e := newKindEngine(t, cfg.qemu)
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

// TestDispatchTracingAllocFree extends the allocation gate to the
// introspection layer: with a recorder *attached but with no hot-path kinds
// enabled* the steady-state slice must still not allocate (the disabled path
// is a nil hook plus a masked Emit), and with full tracing into the
// preallocated ring sink it must not allocate either.
func TestDispatchTracingAllocFree(t *testing.T) {
	for _, cfg := range []struct {
		name string
		mask uint32
	}{
		{"attached-disabled", trace.KindMask(trace.Translate)},
		{"enabled-ring", trace.AllKinds},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			e := newKindEngine(t, false)
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
				e := newKindEngine(t, cfg.qemu)
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
// -benchmem runs (the CI bench-smoke job fails the build on a non-zero
// allocs/op here). One op is a 500k deci-cycle budget slice.
func BenchmarkDispatchChained(b *testing.B) {
	e := newKindEngine(b, false)
	loadHotLoop(b, e)
	start := e.CPUStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(dispatchSlice); err != core.ErrBudget {
			b.Fatalf("run: %v", err)
		}
	}
	b.StopTimer()
	retired := e.CPUStats().Insts - start.Insts
	if b.N > 0 {
		b.ReportMetric(float64(retired)/float64(b.N), "host-instrs/op")
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
			e := newKindEngine(t, cfg.qemu)
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
			if e.Stats.SMCInvals == 0 {
				t.Error("SMC invalidation did not fire")
			}
		})
	}
}
