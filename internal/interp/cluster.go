package interp

import (
	"fmt"

	"captive/internal/device"
	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/metrics"
	"captive/internal/smp"
	"captive/internal/ssa"
)

// Cluster is N interpreted harts sharing one guest physical memory and one
// device bus — the golden model of an SMP guest machine. Harts run under the
// deterministic round-robin scheduler (internal/smp) in fixed
// retired-instruction quanta over one shared virtual clock, producing the
// exact interleaving the DBT engines produce under the same scheduler; that
// is what lets the SMP difftest lane compare multi-vCPU runs bit-for-bit.
//
// The cluster allocates guest RAM and the bus once and hands them to every
// hart. Per-hart system state (CSRs, privilege mode) stays private to each
// Machine.
//
// Cluster implements the machine seam (internal/machine). A one-hart cluster
// is a uniprocessor, the standalone Machine New returns, whose wfi
// idle-skips or halts where the harts of a larger cluster park.
type Cluster struct {
	// Machine lists the harts (each Machine's embedded smp.Guest).
	smp.Machine

	Machines []*Machine

	// Quantum is the deterministic scheduler's retired-instruction quantum
	// Run uses for more than one hart.
	Quantum uint64

	idleOff uint64

	// steps/stepLimit is the step budget of the current run, shared by
	// every hart (steps, not retired instructions, so fault loops
	// terminate).
	steps, stepLimit uint64
}

// NewCluster creates an n-hart cluster for the guest architecture described
// by g. All harts share one guest memory and device bus; each has its own
// register file and system state. n=1 degenerates to a standalone machine
// (its wfi idle-skips or halts instead of parking).
func NewCluster(g port.Port, module *gen.Module, ramBytes, n int) *Cluster {
	cl := &Cluster{}
	bus := &device.Bus{Cycles: cl.virtualTime}
	mem := port.NewRAM(uint64(ramBytes))
	for i := 0; i < n; i++ {
		m := &Machine{Module: module, cl: cl, interp: ssa.NewInterp()}
		// Nothing is cached across accesses (the walker runs fresh every
		// time; a scanned block never outlives a regime-changing
		// instruction, which ends its block per the shared rules), so
		// translation changes need no action here.
		m.Init(g, module, make([]byte, module.Layout.Size), mem, bus, port.Hooks{
			HartID: i, CycleCount: cl.virtualTime, TranslationChanged: func() {},
		}, cl.skip)
		cl.Machines = append(cl.Machines, m)
		cl.Harts = append(cl.Harts, &m.Guest)
	}
	return cl
}

// virtualTime is the guest-visible virtual counter every hart and the bus's
// timer read (see core.VirtualTime: the clock is engine-independent by
// construction): total retired instructions across all harts — charged
// block-granularly at entry, exactly like the engines' instrumentation
// prologue, so a mid-block read sees the same value everywhere — plus the
// time skipped while idle in wfi; the same sum the SMP engines keep.
func (cl *Cluster) virtualTime() uint64 {
	vt := cl.idleOff
	for _, m := range cl.Machines {
		vt += m.Instrs
	}
	return vt
}

// skip advances the virtual clock over time every hart spent idle in wfi.
func (cl *Cluster) skip(delta uint64) { cl.idleOff += delta }

// Halted reports whether every hart has halted.
func (cl *Cluster) Halted() bool {
	halted, _ := cl.Exit()
	return halted
}

// Run executes the cluster until every hart halts or the budget expires (an
// error wrapping smp.ErrBudget). budget counts interpreter steps per hart:
// the harts share N×budget steps under RunDet with Quantum.
func (cl *Cluster) Run(budget uint64) error {
	n := len(cl.Machines)
	if n == 1 {
		_, err := cl.Machines[0].Run(budget)
		return err
	}
	if cl.Quantum == 0 {
		return fmt.Errorf("interp: a %d-hart cluster runs only under the deterministic scheduler (set Quantum)", n)
	}
	return cl.RunDet(uint64(n)*budget, cl.Quantum)
}

// Metrics returns the cluster's metrics summed over its harts.
func (cl *Cluster) Metrics() metrics.Snapshot {
	harts := make([]metrics.Snapshot, len(cl.Machines))
	for i, m := range cl.Machines {
		harts[i] = m.Metrics()
	}
	return metrics.Sum(harts...)
}

// GuestInstrs returns the instructions hart i has retired.
func (cl *Cluster) GuestInstrs(i int) uint64 { return cl.Machines[i].Instrs }

// RunDet drives the cluster to completion under the deterministic
// round-robin scheduler with the given instruction quantum. limit bounds
// total interpreter steps across all harts, like Machine.Run's step limit.
// A zero quantum is refused: no slice would run a block.
func (cl *Cluster) RunDet(limit, quantum uint64) error {
	if quantum == 0 {
		return fmt.Errorf("interp: RunDet needs a quantum of at least one instruction")
	}
	cl.steps, cl.stepLimit = 0, limit
	return smp.RunRR(cl.Harts, func(i int) error {
		m := cl.Machines[i]
		return m.run(m.Instrs + quantum)
	})
}
