// Benchmark harness entry points: the paper's evaluation (§3) and
// micro-benchmarks of the toolchain itself.
package captive_test

import (
	"testing"

	"captive"
	"captive/ga64asm"
	"captive/internal/bench"
	"captive/internal/guest/ga64"
	"captive/internal/machine"
	"captive/internal/perf"
	"captive/internal/ssa"
)

// BenchmarkPaper regenerates the paper's evaluation, one sub-benchmark per
// bench.Experiments entry. Each iteration regenerates the experiment once
// and reports its headline value, so
//
//	go test -run '^$' -bench Paper
//
// reproduces the entire evaluation; cmd/bench prints the full tables.
func BenchmarkPaper(b *testing.B) {
	if testing.Short() {
		b.Skip("full-evaluation benchmark; skipped in -short runs")
	}
	for _, e := range bench.Experiments() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				v, ok := headline(tables, e.Headline)
				if !ok {
					b.Fatalf("no %q row with a %q column", e.Headline.Row, e.Headline.Column)
				}
				b.ReportMetric(v, e.Headline.Unit)
			}
		})
	}
}

// headline finds h's cell in tables.
func headline(tables []perf.Table, h bench.Headline) (float64, bool) {
	for _, t := range tables {
		for c, name := range t.Columns {
			if name != h.Column {
				continue
			}
			for _, r := range t.Rows {
				if r.Name == h.Row && c < len(r.Values) {
					return r.Values[c], true
				}
			}
		}
	}
	return 0, false
}

// --- toolchain micro-benchmarks ---

// BenchmarkOfflineModuleBuild measures the offline stage: ADL parse, SSA
// build, O4 optimization and decoder generation for the full GA64 model.
func BenchmarkOfflineModuleBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ga64.BuildModule(ssa.O4); err != nil {
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
