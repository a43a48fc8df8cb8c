// Compare the Captive engine against the QEMU-style baseline on one of the
// SPEC-shaped workloads, reproducing a single bar of the paper's Fig. 17/18.
//
//	go run ./examples/dbt-compare            # default: 429.mcf
//	go run ./examples/dbt-compare 470.lbm    # a floating-point workload
package main

import (
	"fmt"
	"log"
	"os"

	"captive/internal/bench"
)

func main() {
	name := "429.mcf"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	w, ok := bench.ByName(name)
	if !ok {
		log.Fatalf("unknown workload %q; try 429.mcf, 456.hmmer, 470.lbm, ...", name)
	}

	captiveRes, qemuRes, err := bench.Compare(w)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s (%d guest instructions)\n", w.Name, captiveRes.GuestInstrs)
	fmt.Printf("  checksum: %#x (identical on both engines)\n\n", captiveRes.Checksum)
	fmt.Printf("  %-16s %12s %12s %10s\n", "engine", "sim-seconds", "guest-MIPS", "blocks")
	for _, r := range []bench.Result{captiveRes, qemuRes} {
		fmt.Printf("  %-16s %12.4f %12.1f %10d\n",
			r.Engine, r.Seconds, float64(r.GuestInstrs)/r.Seconds/1e6, r.Metrics.JITBlocks)
	}
	fmt.Printf("\n  speed-up of Captive over the baseline: %.2fx\n",
		qemuRes.Seconds/captiveRes.Seconds)
	fmt.Printf("  (paper: 2.21x geomean for SPECint, 6.49x for SPECfp)\n")
}
