package difftest

import (
	"fmt"

	"captive/internal/guest/port"
	"captive/internal/guest/rv64"
	"captive/internal/machine"
)

// The lane table: every differential lane the harness drives. Adding a lane
// is one entry here (plus its generator); the engine matrix, run, comparison,
// minimizer and sweep are shared.
var (
	// User is the GA64 user-level lane.
	User = &Lane{
		Name: "ga64", Generate: Generate, Windows: ga64Windows,
		Corpus: RegressionSeeds, Sweep: Sweep{Seeds: 500, Short: 50, Base: 1_000_000, OpsStep: 30},
	}
	// MMU is the GA64 MMU-on/EL0 lane.
	MMU = &Lane{
		Name: "ga64-mmu", Generate: GenerateMMU, Windows: ga64Windows,
		Corpus: MMURegressionSeeds, Sweep: Sweep{Seeds: 100, Short: 15, Base: 5000, OpsStep: 40},
	}
	// MMUFault is the GA64 EL0 paging-fault lane. Its -short sweep stays at
	// 50 seeds: it proves the interpreter's fault-aware accounting.
	MMUFault = &Lane{
		Name: "ga64-mmufault", Generate: GenerateMMUFault, Windows: ga64Windows,
		Corpus: MMUFaultRegressionSeeds, Sweep: Sweep{Seeds: 150, Short: 50, Base: 7000, OpsStep: 40},
	}
	// SMC is the GA64 self-modifying-code lane; it also requires the SMC
	// invalidation machinery to fire on both DBT engines.
	SMC = &Lane{
		Name: "ga64-smc", Generate: GenerateSMC, Windows: ga64Windows, Assert: smcInvalidated,
		Corpus: SMCRegressionSeeds, Sweep: Sweep{Seeds: 100, Short: 15, Base: 6000, OpsStep: 40},
	}
	// IRQ is the GA64 interrupt-injection lane.
	IRQ = &Lane{
		Name: "ga64-irq", Generate: GenerateIRQ, Windows: ga64Windows,
		Corpus: IRQRegressionSeeds, Sweep: Sweep{Seeds: 120, Short: 12, Base: 6_000_000, OpsStep: 30},
	}
	// RV64User is the RV64 user-level lane. Its minimizer keeps only
	// candidates that still exit cleanly on the golden model, so reductions
	// stay within the generator's bounded, probed-window accesses.
	RV64User = &Lane{
		Name: "rv64", RV64: true, Generate: GenerateRV64, Windows: rv64Windows,
		Filter: func(g Outcome) bool { return g.Harts[0].ExitCode == 0 },
		Corpus: RV64RegressionSeeds, Sweep: Sweep{Seeds: 300, Short: 30, Base: 2_000_000, OpsStep: 30},
	}
	// RV64Sys is the RV64 full-system lane (sv39, M/S/U, CSRs).
	RV64Sys = &Lane{
		Name: "rv64-sys", RV64: true, Generate: GenerateRV64Sys,
		Windows:  append(rv64Windows, [2]uint64{RVSysFaultProbeStart, RVSysFaultProbeEnd}),
		Snapshot: func(s port.Sys) []uint64 { return rvsysSnapshot(rv64.RawSys(s)) },
		Corpus:   RV64SysRegressionSeeds, Sweep: Sweep{Seeds: 200, Short: 25, Base: 4000, OpsStep: 40},
	}
	// RV64IRQ is the RV64 interrupt-injection lane (the sys lane's CSRs
	// plus mideleg/mie/mip; paging is off, so the fault window is not probed).
	RV64IRQ = &Lane{
		Name: "rv64-irq", RV64: true, Generate: GenerateRV64IRQ, Windows: rv64Windows,
		Snapshot: func(s port.Sys) []uint64 { return rvirqSnapshot(rv64.RawSys(s)) },
		Corpus:   RV64IRQRegressionSeeds, Sweep: Sweep{Seeds: 120, Short: 12, Base: 7_000_000, OpsStep: 30},
	}
	// SMP is the two-hart RV64 lane under the deterministic scheduler.
	SMP = &Lane{
		Name: "rv64-smp", RV64: true, Harts: SMPHarts, Generate: GenerateRV64SMP,
		Windows: [][2]uint64{
			{RVSMPProbeStart, RVSMPProbeEnd},
			{RVStackProbe, RVStackEnd},
			{RVSMPStackH1Probe, RVSMPStackH1End},
		},
		Corpus: SMPRegressionSeeds, Sweep: Sweep{Seeds: 120, Short: 12, Base: 8_000_000, OpsStep: 30},
	}
)

// The probed windows of the GA64 and RV64 memory maps.
var (
	ga64Windows = [][2]uint64{{ProbeStart, ProbeEnd}, {StackProbe, StackEnd}}
	rv64Windows = [][2]uint64{{RVProbeStart, RVProbeEnd}, {RVStackProbe, RVStackEnd}}
)

// smcInvalidated is the SMC lane's assertion: on the DBT engines the
// protection path (host-MMU write faults on Captive, dirty tracking on the
// QEMU baseline) must have invalidated translated code, or the lane has
// silently stopped exercising it.
func smcInvalidated(id EngineID, o Outcome) error {
	if id.Kind != machine.Interp && o.Metrics.SMCInvals == 0 {
		return fmt.Errorf("retired no SMC invalidations (protection path not exercised)")
	}
	return nil
}
