package interp

import (
	"fmt"

	"captive/internal/device"
	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/metrics"
	"captive/internal/smp"
	"captive/internal/trace"
)

// Cluster is N interpreted harts sharing one guest physical memory and one
// device bus — the golden model of an SMP guest machine. Harts run under the
// deterministic round-robin scheduler (internal/smp) in fixed
// retired-instruction quanta over one shared virtual clock, producing the
// exact interleaving the DBT engines produce under the same scheduler; that
// is what lets the SMP difftest lane compare multi-vCPU runs bit-for-bit.
//
// Only hart 0's Bus is live (every member's accesses route to it); the
// other machines' Bus fields are unused. Per-hart system state (CSRs,
// privilege mode) stays private to each Machine.
//
// Cluster implements the machine seam (internal/machine). A one-hart cluster
// is a uniprocessor: its hart is a standalone Machine, which idle-skips or
// halts in wfi where cluster harts park.
type Cluster struct {
	Machines []*Machine

	// Quantum is the deterministic scheduler's retired-instruction quantum
	// Run uses for more than one hart.
	Quantum uint64

	bus     *device.Bus
	idleOff uint64

	// steps/stepLimit is the shared step budget of the current RunDet call
	// (steps, not retired instructions, so fault loops terminate).
	steps, stepLimit uint64
}

// NewCluster creates an n-hart cluster for the guest architecture described
// by g. All harts share hart 0's memory and device bus; each has its own
// register file and system state. n=1 degenerates to a standalone machine
// (its wfi idle-skips or halts instead of parking).
func NewCluster(g port.Port, module *gen.Module, ramBytes, n int) *Cluster {
	cl := &Cluster{}
	for i := 0; i < n; i++ {
		m := New(g, module, ramBytes)
		if n > 1 {
			m.cl = cl
		}
		m.hartID = i
		m.hooks.HartID = i
		if i > 0 {
			m.Mem = cl.Machines[0].Mem
			m.bus = cl.Machines[0].bus
		}
		cl.Machines = append(cl.Machines, m)
	}
	cl.bus = cl.Machines[0].bus
	return cl
}

// virtualTime is the cluster's shared virtual clock: total retired
// instructions across all harts plus skipped idle time (the SMP
// generalization of the uniprocessor Instrs+idleOff split).
func (cl *Cluster) virtualTime() uint64 {
	vt := cl.idleOff
	for _, m := range cl.Machines {
		vt += m.Instrs
	}
	return vt
}

// Console returns the guest's UART output (the shared bus).
func (cl *Cluster) Console() string { return cl.bus.Console() }

// Halted reports whether every hart has halted.
func (cl *Cluster) Halted() bool {
	for _, m := range cl.Machines {
		if !m.Halted {
			return false
		}
	}
	return true
}

// Run executes the cluster until every hart halts or the budget expires (an
// error wrapping smp.ErrBudget). budget counts interpreter steps per hart:
// the harts share N×budget steps under RunDet with Quantum.
func (cl *Cluster) Run(budget uint64) error {
	n := len(cl.Machines)
	if n > 1 && cl.Quantum == 0 {
		return fmt.Errorf("interp: a %d-hart cluster runs only under the deterministic scheduler (set Quantum)", n)
	}
	return cl.RunDet(uint64(n)*budget, cl.Quantum)
}

// LoadImage copies an image into guest RAM and points every hart at entry.
func (cl *Cluster) LoadImage(data []byte, pa, entry uint64) error {
	if err := cl.Machines[0].LoadImage(data, pa, entry); err != nil {
		return err
	}
	for _, m := range cl.Machines[1:] {
		m.SetPC(entry)
	}
	return nil
}

// LoadData copies bytes into guest RAM.
func (cl *Cluster) LoadData(data []byte, pa uint64) error {
	mem := cl.Machines[0].Mem
	if pa > uint64(len(mem)) || uint64(len(data)) > uint64(len(mem))-pa {
		return fmt.Errorf("interp: %d bytes at %#x exceed %d bytes of RAM", len(data), pa, len(mem))
	}
	copy(mem[pa:], data)
	return nil
}

// ReadRAM copies guest RAM starting at pa into dst.
func (cl *Cluster) ReadRAM(pa uint64, dst []byte) error {
	mem := cl.Machines[0].Mem
	if pa > uint64(len(mem)) || uint64(len(dst)) > uint64(len(mem))-pa {
		return fmt.Errorf("interp: ReadRAM [%#x, +%#x) exceeds guest RAM", pa, len(dst))
	}
	copy(dst, mem[pa:])
	return nil
}

// Exit reports whether every hart has halted, and hart 0's exit code.
func (cl *Cluster) Exit() (bool, uint64) {
	if !cl.Halted() {
		return false, 0
	}
	return true, cl.Machines[0].ExitCode
}

// Metrics returns the cluster's metrics summed over its harts.
func (cl *Cluster) Metrics() metrics.Snapshot {
	harts := make([]metrics.Snapshot, len(cl.Machines))
	for i, m := range cl.Machines {
		harts[i] = m.Metrics()
	}
	return metrics.Sum(harts...)
}

// N returns the hart count.
func (cl *Cluster) N() int { return len(cl.Machines) }

// The per-hart view of the machine seam: hart i's state.

func (cl *Cluster) Reg(i, n int) uint64               { return cl.Machines[i].Reg(n) }
func (cl *Cluster) SetReg(i, n int, v uint64)         { cl.Machines[i].SetReg(n, v) }
func (cl *Cluster) FReg(i, n int) uint64              { return cl.Machines[i].FReg(n) }
func (cl *Cluster) PC(i int) uint64                   { return cl.Machines[i].PC() }
func (cl *Cluster) RegState(i int) []byte             { return cl.Machines[i].RegState() }
func (cl *Cluster) Sys(i int) port.Sys                { return cl.Machines[i].Sys() }
func (cl *Cluster) GuestInstrs(i int) uint64          { return cl.Machines[i].Instrs }
func (cl *Cluster) SetTrace(i int, r *trace.Recorder) { cl.Machines[i].SetTrace(r) }
func (cl *Cluster) HartExit(i int) (bool, uint64) {
	return cl.Machines[i].Halted, cl.Machines[i].ExitCode
}

// RunDet drives the cluster to completion under the deterministic
// round-robin scheduler with the given instruction quantum. limit bounds
// total interpreter steps across all harts, like Machine.Run's step limit.
// The hart of a one-hart cluster runs Machine.Run.
func (cl *Cluster) RunDet(limit, quantum uint64) error {
	if len(cl.Machines) == 1 {
		_, err := cl.Machines[0].Run(limit)
		return err
	}
	cl.steps, cl.stepLimit = 0, limit
	harts := make([]smp.Hart, len(cl.Machines))
	for i, m := range cl.Machines {
		harts[i] = clHart{m}
	}
	return smp.RunRR(harts, clClock{cl}, quantum)
}

// clHart adapts a cluster member to the scheduler's hart view.
type clHart struct{ m *Machine }

func (h clHart) Halted() bool  { return h.m.Halted }
func (h clHart) Waiting() bool { return h.m.Waiting }
func (h clHart) WakeableNow() bool {
	return h.m.sys.WFIWake(h.m.timerLine(), &h.m.hooks)
}
func (h clHart) TimerWakeable() bool {
	return h.m.hartID == 0 && h.m.sys.WFIWake(true, &h.m.hooks)
}
func (h clHart) ClearWait()                    { h.m.Waiting = false }
func (h clHart) HaltIdle()                     { h.m.Halted = true; h.m.ExitCode = 0 }
func (h clHart) RunSlice(quantum uint64) error { return h.m.RunSlice(quantum) }

// clClock adapts the cluster's virtual clock to the scheduler. Skip stamps
// one WFIIdle event per hart at the pre-skip time, exactly like the SMP
// engines, keeping the comparable trace streams aligned.
type clClock struct{ cl *Cluster }

func (c clClock) VirtualTime() uint64 { return c.cl.virtualTime() }
func (c clClock) TimerDeadline() (cmp uint64, armed bool) {
	return c.cl.bus.TimerState()
}
func (c clClock) Skip(delta uint64) {
	for _, m := range c.cl.Machines {
		m.rec.Emit(trace.WFIIdle, 0, m.virtualTime(), m.PC(), delta)
	}
	c.cl.idleOff += delta
}
