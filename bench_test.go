// Benchmark harness entry points: one testing.B benchmark per table and
// figure of the paper's evaluation (§3), plus micro-benchmarks of the
// toolchain itself. Each figure benchmark performs one full regeneration per
// iteration and reports its headline number via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. cmd/bench prints the full tables.
package captive_test

import (
	"testing"

	"captive"
	"captive/ga64asm"
	"captive/internal/bench"
	"captive/internal/machine"
	"captive/internal/perf"
	"captive/internal/ssa"
)

// BenchmarkFig17_SPECint regenerates Fig. 17: SPECint speedup over the QEMU
// baseline (paper: geomean 2.21x).
func BenchmarkFig17_SPECint(b *testing.B) {
	if testing.Short() {
		b.Skip("full-evaluation benchmark; skipped in -short runs")
	}
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, w := range bench.Integer() {
			c, q, err := bench.Compare(w)
			if err != nil {
				b.Fatal(err)
			}
			ratios = append(ratios, perf.Speedup(q.Seconds, c.Seconds))
		}
		b.ReportMetric(perf.GeoMean(ratios), "geomean-speedup")
	}
}

// BenchmarkFig18_SPECfp regenerates Fig. 18: SPECfp speedup (paper: 6.49x).
func BenchmarkFig18_SPECfp(b *testing.B) {
	if testing.Short() {
		b.Skip("full-evaluation benchmark; skipped in -short runs")
	}
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, w := range bench.Float() {
			c, q, err := bench.Compare(w)
			if err != nil {
				b.Fatal(err)
			}
			ratios = append(ratios, perf.Speedup(q.Seconds, c.Seconds))
		}
		b.ReportMetric(perf.GeoMean(ratios), "geomean-speedup")
	}
}

// BenchmarkFig19_SimBench regenerates Fig. 19 and reports the memory-system
// headline (Mem-Hot-MMU speedup).
func BenchmarkFig19_SimBench(b *testing.B) {
	if testing.Short() {
		b.Skip("full-evaluation benchmark; skipped in -short runs")
	}
	for i := 0; i < b.N; i++ {
		var hot float64
		for _, m := range bench.SimBench() {
			c, err := bench.RunMicro(machine.Captive, m)
			if err != nil {
				b.Fatal(err)
			}
			q, err := bench.RunMicro(machine.QEMU, m)
			if err != nil {
				b.Fatal(err)
			}
			if m.Name == "Mem-Hot-MMU" {
				hot = perf.Speedup(q.Seconds, c.Seconds)
			}
		}
		b.ReportMetric(hot, "mem-hot-mmu-speedup")
	}
}

// BenchmarkFig20_JITPhases regenerates Fig. 20 and reports the translate
// share (paper: 54.54%).
func BenchmarkFig20_JITPhases(b *testing.B) {
	if testing.Short() {
		b.Skip("full-evaluation benchmark; skipped in -short runs")
	}
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig20()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t.Rows {
			if row.Name == "Translate" {
				b.ReportMetric(row.Values[0], "translate-%")
			}
		}
	}
}

// BenchmarkFig21_CodeQuality regenerates Fig. 21 and reports the per-block
// code-quality factor (paper: 3.44x on 429.mcf).
func BenchmarkFig21_CodeQuality(b *testing.B) {
	if testing.Short() {
		b.Skip("full-evaluation benchmark; skipped in -short runs")
	}
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig21()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Fit.Shift, "block-quality-factor")
	}
}

// BenchmarkFig22_Native regenerates Fig. 22 and reports Captive's guest MIPS
// (the basis of the native-platform comparison).
func BenchmarkFig22_Native(b *testing.B) {
	if testing.Short() {
		b.Skip("full-evaluation benchmark; skipped in -short runs")
	}
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig22()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t.Rows {
			if row.Name == "Captive" {
				b.ReportMetric(row.Values[0], "speedup-vs-qemu")
			}
		}
	}
}

// BenchmarkTable2_Sqrt verifies and times the Table 2 corner-case
// reproduction (bit-accurate FSQRT via host FP + fix-ups).
func BenchmarkTable2_Sqrt(b *testing.B) {
	if testing.Short() {
		b.Skip("full-evaluation benchmark; skipped in -short runs")
	}
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5_Retarget regenerates the Table 5-style retarget figure:
// RV64 kernels through the same Captive/QEMU engines via the guest port.
func BenchmarkTable5_Retarget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Table5()
		if err != nil {
			b.Fatal(err)
		}
		last := t.Rows[len(t.Rows)-1]
		b.ReportMetric(last.Values[len(last.Values)-1], "geomean-speedup")
	}
}

// BenchmarkSec34_JITStats regenerates the §3.4 statistics and reports bytes
// of host code per guest instruction on Captive (paper: 67.53).
func BenchmarkSec34_JITStats(b *testing.B) {
	if testing.Short() {
		b.Skip("full-evaluation benchmark; skipped in -short runs")
	}
	for i := 0; i < b.N; i++ {
		t, err := bench.Sec34()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t.Rows {
			if row.Name == "bytes-per-guest-inst" {
				b.ReportMetric(row.Values[0], "captive-bytes/guest-inst")
			}
		}
	}
}

// BenchmarkSec361_OptLevels regenerates the §3.6.1 offline-optimization
// comparison and reports the O4 size reduction (paper: 56%).
func BenchmarkSec361_OptLevels(b *testing.B) {
	if testing.Short() {
		b.Skip("full-evaluation benchmark; skipped in -short runs")
	}
	for i := 0; i < b.N; i++ {
		t, err := bench.Sec361()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t.Rows {
			if row.Name == "O4" {
				b.ReportMetric(row.Values[1], "O4-reduction-%")
			}
		}
	}
}

// BenchmarkSec362_HardVsSoftFP regenerates §3.6.2 and reports the
// within-Captive hardware-FP gain (paper: 1.3x).
func BenchmarkSec362_HardVsSoftFP(b *testing.B) {
	if testing.Short() {
		b.Skip("full-evaluation benchmark; skipped in -short runs")
	}
	for i := 0; i < b.N; i++ {
		t, err := bench.Sec362()
		if err != nil {
			b.Fatal(err)
		}
		_ = t
	}
}

// --- toolchain micro-benchmarks ---

// BenchmarkOfflineModuleBuild measures the offline stage: ADL parse, SSA
// build, O4 optimization and decoder generation for the full GA64 model.
func BenchmarkOfflineModuleBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.BuildFreshModule(ssa.O4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslationThroughput measures online translation: guest blocks
// translated per second (decode + generator functions + regalloc + encode).
func BenchmarkTranslationThroughput(b *testing.B) {
	img, err := bench.BareMetal(bench.SmallBlocksProgram())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunImage(machine.Captive, img, "small-blocks")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.JITBlocks), "blocks")
	}
}

// BenchmarkGuestExecution measures end-to-end simulation speed in guest MIPS
// of real time (not simulated time) on a hot loop.
func BenchmarkGuestExecution(b *testing.B) {
	p := ga64asm.New(0x1000)
	p.MovI(0, 0)
	p.MovI(1, 1)
	p.MovI(2, 1_000_000)
	p.Label("loop")
	p.Add(0, 0, 1)
	p.SubsI(2, 2, 1)
	p.BCond(ga64asm.CondNE, "loop")
	p.Hlt(0)
	img, err := p.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := captive.New(captive.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := g.LoadImage(img, 0x1000, 0x1000); err != nil {
			b.Fatal(err)
		}
		if _, err := g.Run(0); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(g.Stats().GuestInstructions), "guest-insts")
	}
}
