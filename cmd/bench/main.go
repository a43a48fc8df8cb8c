// Command bench regenerates the tables and figures of the paper's
// evaluation (§3). With no arguments it reproduces every experiment;
// arguments name the experiments to run, in order:
//
//	bench fig17        # SPECint runtimes and speedups
//	bench fig18        # SPECfp speedups
//	bench fig19        # SimBench micro-benchmarks
//	bench fig20        # JIT phase breakdown
//	bench fig21        # per-block code quality (chaining off)
//	bench fig22        # comparison against native platform models
//	bench table2       # FSQRT corner cases
//	bench table5       # retargeted RV64 guest, Captive vs QEMU
//	bench sec3.4       # JIT statistics
//	bench sec3.6.1     # offline optimization levels
//	bench sec3.6.2     # hardware vs software floating point
//
// Every value is simulated time except the host JIT timings of fig20 and
// sec3.4. Host wall-clock throughput is measured by the perfbench module,
// and the simulated model is held by internal/bench's TestModelGolden.
package main

import (
	"fmt"
	"os"
	"slices"

	"captive/internal/bench"
)

func main() {
	all := bench.Experiments()
	exps := all
	if len(os.Args) > 1 {
		exps = nil
		for _, name := range os.Args[1:] {
			i := slices.IndexFunc(all, func(e bench.Experiment) bool { return e.Name == name })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "bench: unknown experiment %q; have:", name)
				for _, e := range all {
					fmt.Fprintf(os.Stderr, " %s", e.Name)
				}
				fmt.Fprintln(os.Stderr)
				os.Exit(2)
			}
			exps = append(exps, all[i])
		}
	}
	for _, e := range exps {
		tables, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
	}
}
