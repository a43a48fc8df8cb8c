package bench

// Multi-vCPU guest-MIPS scaling: the same per-hart kernel on 1, 2 and 4
// truly-parallel vCPUs (core.SMP.RunParallel), reporting *aggregate*
// guest MIPS — total retired guest instructions across every hart per host
// wall-clock second. Each hart runs an identical LCG mix loop seeded by
// mhartid, so the work is embarrassingly parallel and the figure isolates
// the engine's scaling: shared-code-cache contention, the stop-the-world
// checkpoint cost and the per-hart dispatcher. The x1 row runs the very same
// kernel on the uniprocessor dispatcher, making it the in-figure baseline.
//
// These rows join the guest-MIPS JSON report under workload names of their
// own ("smp-lcg-x<n>"), so the single-vCPU model gate against older
// baselines is untouched.

import (
	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
)

// rvSMPKernel is the per-hart workload: an LCG register mix seeded by
// mhartid, 4 instructions per iteration, no memory traffic — every hart
// executes the same code pages out of the shared physically-indexed cache.
func rvSMPKernel(iters uint64) *rvasm.Program {
	p := rvasm.New(0x1000)
	p.Csrr(5, rv64.CSRMhartid)
	p.Li(10, iters)
	p.Addi(11, 5, 1) // per-hart seed
	p.Li(13, 6364136223846793005)
	p.Li(14, 1442695040888963407)
	p.Label("loop")
	p.Mul(11, 11, 13)
	p.Add(11, 11, 14)
	p.Addi(10, 10, -1)
	p.Bne(10, rvasm.X0, "loop")
	p.Ecall()
	return p
}

// smpScalingCounts selects the vCPU counts measured; short mode trims the
// four-way point so the CI smoke job stays fast.
func smpScalingCounts(short bool) []int {
	if short {
		return []int{1, 2}
	}
	return []int{1, 2, 4}
}

// smpScalingIters sizes the per-hart kernel.
func smpScalingIters(short bool) uint64 {
	if short {
		return 400_000
	}
	return 4_000_000
}
