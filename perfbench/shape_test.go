package main

// Workload-shape checks: each workload must exercise the layer it is meant
// to, on the default seed and on a held-out one, judged by deterministic
// counters only (never by time). Run with `go test` in this directory.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"captive/internal/metrics"
)

const heldOutSeed = 7

// runShape runs every program of a workload once per engine and returns the
// per-engine Metrics() totals, failing on any error or mismatch with the
// reference interpreter.
func runShape(t *testing.T, progs []*program) map[string]metrics.Snapshot {
	t.Helper()
	out := map[string]metrics.Snapshot{}
	for _, p := range progs {
		mod, err := buildModule(p.guest)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference(p, mod)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range engines {
			m, _, err := newMachine(p, eng, mod, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.run(); err != nil {
				t.Fatalf("%s on %s: %v", p.name, eng, err)
			}
			if err := m.outcome().check(want); err != nil {
				t.Fatalf("%s on %s: %v", p.name, eng, err)
			}
			sum := out[eng]
			addSnapshot(&sum, m.metrics())
			out[eng] = sum
		}
	}
	return out
}

func perKinstr(n, instrs uint64) float64 { return float64(n) * 1e3 / float64(instrs) }

func forSeeds(t *testing.T, fn func(t *testing.T, seed int64)) {
	for _, seed := range []int64{1, heldOutSeed} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { fn(t, seed) })
	}
}

// Steady: a few dozen blocks, and the dispatcher all but bypassed.
func TestSteadyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("steady programs run for seconds")
	}
	progs, err := steadyPrograms()
	if err != nil {
		t.Fatal(err)
	}
	for eng, m := range runShape(t, progs) {
		if m.JITBlocks > 100 {
			t.Errorf("%s: %d JIT blocks, want a few dozen", eng, m.JITBlocks)
		}
		if d := perKinstr(m.DispatchLoops, m.GuestInstrs); d > 0.1 {
			t.Errorf("%s: %.4f dispatches per 1,000 instructions, want ~0", eng, d)
		}
	}
}

// Cold: tens of thousands of blocks per round, a low cache-hit ratio and
// no cache flushes.
func TestColdShape(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed int64) {
		progs, err := coldPrograms(seed)
		if err != nil {
			t.Fatal(err)
		}
		for eng, m := range runShape(t, progs) {
			if m.JITBlocks < 10_000 {
				t.Errorf("%s: %d JIT blocks, want >= 10,000", eng, m.JITBlocks)
			}
			if hit := cacheHitRatio(float64(m.JITBlocks), float64(m.DispatchLoops)); hit > 0.5 {
				t.Errorf("%s: cache-hit ratio %.3f, want < 0.5", eng, hit)
			}
			if m.CacheFlushes != 0 {
				t.Errorf("%s: %d cache flushes, want 0", eng, m.CacheFlushes)
			}
		}
	})
}

// System: every regime change flushes the baseline's virtually indexed
// cache; Captive's physically indexed cache survives them all.
func TestSystemShape(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed int64) {
		progs, err := systemPrograms(seed)
		if err != nil {
			t.Fatal(err)
		}
		got := runShape(t, progs)
		q, c := got["qemu"], got["captive"]
		if q.CacheFlushes == 0 || q.CacheFlushes != q.TransFlushes {
			t.Errorf("qemu: %d cache flushes for %d translation flushes, want equal and > 0", q.CacheFlushes, q.TransFlushes)
		}
		if c.CacheFlushes != 0 {
			t.Errorf("captive: %d cache flushes, want 0", c.CacheFlushes)
		}
		for eng, m := range got {
			if m.GuestFaults == 0 || m.IRQsDelivered == 0 || m.MMIOEmulations == 0 {
				t.Errorf("%s: faults %d, irqs %d, mmio %d, want all > 0", eng, m.GuestFaults, m.IRQsDelivered, m.MMIOEmulations)
			}
		}
	})
}

// smp2: with chaining off for more than one hart, the hot loop goes through
// the dispatcher on every block.
func TestSMP2Shape(t *testing.T) {
	forSeeds(t, func(t *testing.T, seed int64) {
		p, err := smpProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		for eng, m := range runShape(t, []*program{p}) {
			if d := perKinstr(m.DispatchLoops, m.GuestInstrs); d < 200 {
				t.Errorf("%s: %.1f dispatches per 1,000 instructions, want >= 200", eng, d)
			}
		}
	})
}

// Two seeds generate cold programs of the same shape — block count,
// block-length and terminator histogram, and reuse (passes over the chain) —
// so a held-out seed measures the same thing.
func TestColdSeedInvariance(t *testing.T) {
	hist := func(seed int64) map[int]int {
		lens, terms := coldShape(newRand(seed), coldBlocks)
		h := map[int]int{}
		for i, n := range lens {
			h[n*numTerms+terms[i]]++
		}
		return h
	}
	if a, b := hist(1), hist(heldOutSeed); !reflect.DeepEqual(a, b) {
		t.Fatalf("length/terminator histograms differ between seeds:\n%v\n%v", a, b)
	}
	a, err := coldPrograms(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := coldPrograms(heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a[0].segs[0].data, b[0].segs[0].data) {
		t.Fatal("seeds generated identical GA64 programs")
	}
	// Retired instructions repeat exactly. Translated blocks and dispatches
	// may differ by the few blocks that straddle a 4 KiB page boundary
	// (translations stop there), which the seed-chosen order moves.
	near := func(x, y int) bool { return math.Abs(float64(x-y)) <= 1e-3*float64(max(x, y)) }
	ma, mb := runShape(t, a), runShape(t, b)
	for _, eng := range engines {
		x, y := ma[eng], mb[eng]
		if x.GuestInstrs != y.GuestInstrs {
			t.Errorf("%s: retired instructions %d/%d differ between seeds", eng, x.GuestInstrs, y.GuestInstrs)
		}
		if !near(x.JITBlocks, y.JITBlocks) || !near(int(x.DispatchLoops), int(y.DispatchLoops)) {
			t.Errorf("%s: blocks %d/%d or dispatches %d/%d differ by more than 0.1%% between seeds",
				eng, x.JITBlocks, y.JITBlocks, x.DispatchLoops, y.DispatchLoops)
		}
	}
}

// Every untraced run reports exactly the end-to-end metrics of
// BENCHMARK.json, and every traced run exactly its per-layer metrics, with
// the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type specMetric struct{ Name, Unit string }
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metric, want []specMetric) {
		g := map[string]metric{}
		for _, m := range got {
			if _, dup := g[m.name]; dup {
				t.Errorf("%s metric %s reported twice", kind, m.name)
			}
			g[m.name] = m
		}
		if len(g) != len(want) {
			t.Errorf("%d %s metrics reported, BENCHMARK.json lists %d", len(g), kind, len(want))
		}
		for _, w := range want {
			m, ok := g[w.Name]
			if !ok || m.unit != w.Unit {
				t.Errorf("%s metric %s: reported %+v, BENCHMARK.json has unit %q", kind, w.Name, m, w.Unit)
			}
		}
	}
	ops := []op{{engine: "captive", instrs: 1, cycles: 1, wall: 1}, {engine: "qemu", instrs: 1, cycles: 1, wall: 1}}
	compare("end-to-end", endToEnd(ops, 1, 1), spec.EndToEnd)
	compare("per-layer", layerMetrics(newTracer(), 1, 0), spec.PerLayer)
}
