// Command bench regenerates the tables and figures of the paper's
// evaluation (§3). With no flags it reproduces everything; individual
// experiments are selected with -fig/-table/-sec.
//
//	bench -fig 17      # SPECint runtimes and speedups
//	bench -fig 18      # SPECfp speedups
//	bench -fig 19      # SimBench micro-benchmarks
//	bench -fig 20      # JIT phase breakdown
//	bench -fig 21      # per-block code quality (chaining off)
//	bench -fig 22      # comparison against native platform models
//	bench -table 2     # FSQRT corner cases
//	bench -table 5     # retargeted RV64 guest, Captive vs QEMU
//	bench -sec 3.4     # JIT statistics
//	bench -sec 3.6.1   # offline optimization levels
//	bench -sec 3.6.2   # hardware vs software floating point
//
// The guest-MIPS harness measures host wall-clock throughput (the axis
// perf PRs optimize; everything above reports simulated time, the axis
// perf PRs must not move) and writes a JSON report:
//
//	bench -json BENCH_5.json                   # full engine x guest x workload matrix
//	bench -json out.json -mips-short           # CI smoke subset
//	bench -json out.json -baseline before.json # attach baseline, compute speedups,
//	                                           # fail if the sim-cycle model moved
//
// Each report row carries a "metrics" section (the unified
// metrics.Snapshot for that engine/guest/workload cell). The baseline
// gate never reads it: wall-clock-derived fields may vary run to run,
// only the simulated model is held bit-identical.
package main

import (
	"flag"
	"fmt"
	"os"

	"captive/internal/bench"
	"captive/internal/perf"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (17, 18, 19, 20, 21, 22)")
	table := flag.Int("table", 0, "table number to regenerate (2, 5)")
	sec := flag.String("sec", "", "section to regenerate (3.4, 3.6.1, 3.6.2)")
	jsonPath := flag.String("json", "", "run the guest-MIPS wall-clock harness and write the report to this path")
	baseline := flag.String("baseline", "", "baseline guest-MIPS report to compute speedups against (requires -json)")
	mipsShort := flag.Bool("mips-short", false, "guest-MIPS harness: short workload subset (CI smoke)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	if *jsonPath == "" && (*baseline != "" || *mipsShort) {
		fail(fmt.Errorf("-baseline and -mips-short select guest-MIPS harness options and require -json"))
	}
	if *jsonPath != "" {
		rep, err := bench.GuestMIPS(*mipsShort)
		if err != nil {
			fail(err)
		}
		if *baseline != "" {
			base, err := bench.ReadMIPSReport(*baseline)
			if err != nil {
				fail(err)
			}
			if err := rep.MergeBaseline(base); err != nil {
				fail(err)
			}
		}
		if err := rep.WriteJSON(*jsonPath); err != nil {
			fail(err)
		}
		fmt.Print(rep.String())
		return
	}

	all := *fig == 0 && *table == 0 && *sec == ""
	show := func(t perf.Table, err error) {
		if err != nil {
			fail(err)
		}
		fmt.Println(t.String())
	}

	if all || *fig == 17 {
		abs, spd, err := bench.Fig17()
		if err != nil {
			fail(err)
		}
		fmt.Println(abs.String())
		fmt.Println(spd.String())
	}
	if all || *fig == 18 {
		show(bench.Fig18())
	}
	if all || *fig == 19 {
		show(bench.Fig19())
	}
	if all || *fig == 20 {
		show(bench.Fig20())
	}
	if all || *fig == 21 {
		r, err := bench.Fig21()
		if err != nil {
			fail(err)
		}
		fmt.Println(r.Table.String())
	}
	if all || *fig == 22 {
		show(bench.Fig22())
	}
	if all || *table == 2 {
		show(bench.Table2())
	}
	if all || *table == 5 {
		show(bench.Table5())
	}
	if all || *sec == "3.4" {
		show(bench.Sec34())
	}
	if all || *sec == "3.6.1" {
		show(bench.Sec361())
	}
	if all || *sec == "3.6.2" {
		show(bench.Sec362())
	}
}
