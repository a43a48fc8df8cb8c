package core

// SMP execution: N vCPU engines over one guest RAM, one port-driven system
// model and one physically-indexed code cache. The translation state — the
// code cache (which owns the exit and chain indexes), the profile-slot map
// and the idle-skip offset of the virtual clock — lives in the machine, SMP,
// the one type core has per machine at any vCPU count; each engine keeps its
// own VX64 CPU, register state, host MMU (a disjoint slice of the page-table
// pool), iTLB, system model, stats and trace recorder. Every run mode drives
// each hart through the same dispatcher loop (Engine.run).
//
// Two run modes exist:
//
//   - RunDet: the deterministic round-robin scheduler (internal/smp) drives
//     every hart in fixed retired-instruction quanta on one goroutine. The
//     interleaving is bit-identical across the interpreter cluster, Captive
//     at every offline level and the QEMU baseline — the CheckSMP difftest
//     lane depends on it.
//   - RunParallel: one goroutine per hart, truly concurrent (Captive only;
//     the QEMU baseline's global-flush behavior is only supported under the
//     deterministic scheduler). Mutations of shared translation state run
//     under a stop-the-world protocol: the mutating hart kicks every sibling
//     (vx64.CPU.Kick makes the next block-entry IRQCHK trap out), waits for
//     them to park at their dispatcher checkpoint, and mutates alone.
//
// Outside stop-the-world, a parallel dispatcher round trip touches no line
// a sibling writes: it reads the interrupt lines from lock-free atomics on
// the device bus, its trace sites read the shared virtual clock only when a
// recorder wants the event (smp.Guest.Record), and its one store that
// siblings may read is its own published retire count.
//
// Cross-block chaining is disabled for N > 1: chain slots compare the guest
// *virtual* PC, which is only sound when every hart shares one translation
// regime — per-hart page tables could send hart B through a chain installed
// for hart A's mapping. Every block instead returns to its own dispatcher,
// which also bounds how long a sibling can run before reaching a checkpoint.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/hvm"
	"captive/internal/metrics"
	"captive/internal/smp"
	"captive/internal/trace"
)

// SMP is an N-vCPU Captive or QEMU-baseline machine: one engine per vCPU
// over the translation and clock state they share. It implements the
// machine seam (internal/machine); a uniprocessor is the one-vCPU case, the
// machine New and NewQEMU build around their engine.
type SMP struct {
	// Machine lists the vCPUs' harts (the engines' embedded smp.Guest).
	smp.Machine

	engines []*Engine

	// Quantum selects how Run drives more than one vCPU: the deterministic
	// scheduler with this retired-instruction quantum, or (0) RunParallel.
	Quantum uint64

	mu      sync.Mutex
	quiesce *sync.Cond // broadcast on running/stw transitions

	cache *codeCache

	// profPC maps shared profile-arena slots to guest PCs (observe.go).
	profPC []uint64

	// idleOff is the virtual time skipped while every runnable hart idled
	// in wfi (the SMP generalization of the single-hart idle skip). Part of
	// the guest-visible virtual clock, never of the simulated host clock.
	idleOff uint64

	// Stop-the-world state for RunParallel. stwFlag mirrors stw > 0 for the
	// lock-free checkpoint fast path.
	parallel bool
	stw      int
	running  int
	stwFlag  atomic.Int32
}

// NewSMP creates one Captive engine per vCPU of the VM (hvm.Config.VCPUs),
// sharing guest RAM, the system model behind the device bus, and the
// physically-indexed code cache.
func NewSMP(vm *hvm.VM, g port.Port, module *gen.Module) (*SMP, error) {
	return newSMP(vm, g, module, BackendCaptive)
}

// NewSMPQEMU creates the QEMU-style baseline with N vCPUs. Only the
// deterministic scheduler may drive it (RunParallel refuses): the baseline's
// virtually-indexed cache and global flushes assume a quiesced machine.
func NewSMPQEMU(vm *hvm.VM, g port.Port, module *gen.Module) (*SMP, error) {
	return newSMP(vm, g, module, BackendQEMU)
}

// newSMP builds one engine of the given kind per vCPU of the VM over a fresh
// machine. With more than one vCPU, cross-block chaining is disabled (see
// the package comment above).
func newSMP(vm *hvm.VM, g port.Port, module *gen.Module, kind BackendKind) (*SMP, error) {
	s := &SMP{}
	s.quiesce = sync.NewCond(&s.mu)
	l := vm.Layout
	s.cache = newCodeCache(vm.Phys, vm.CPUs, l.CodePA, l.CodeSize)
	for id := range vm.CPUs {
		e, err := newEngine(vm, g, module, id, s)
		if err != nil {
			return nil, err
		}
		e.ChainingOff = len(vm.CPUs) > 1
		if kind == BackendQEMU {
			e.Kind, e.SoftFP = BackendQEMU, true
			e.softTLBOff = int32(l.SoftTLBOf(id) - e.statePA)
			e.flushSoftTLB()
		}
		s.engines = append(s.engines, e)
		s.Harts = append(s.Harts, &e.Guest)
	}
	// The device bus ticks on the same virtual clock the guest reads
	// through CNTVCT/time: retired instructions, not simulated host cycles.
	// Host cycles are engine-dependent (dispatch and JIT charges differ by
	// backend), so a timer driven by them would fire at different guest
	// instructions on different engines; the virtual clock makes interrupt
	// arrival bit-identical everywhere.
	vm.Bus.Cycles = s.busTime
	for _, e := range s.engines {
		e.refreshIRQ()
	}
	return s, nil
}

// enterSlot joins the running set, waiting out any stop-the-world.
func (s *SMP) enterSlot() {
	s.mu.Lock()
	for s.stw > 0 {
		s.quiesce.Wait()
	}
	s.running++
	s.mu.Unlock()
}

// leaveSlot leaves the running set, releasing any waiting mutator.
func (s *SMP) leaveSlot() {
	s.mu.Lock()
	s.running--
	s.quiesce.Broadcast()
	s.mu.Unlock()
}

// checkpoint parks the calling hart while a sibling holds the world
// stopped. Called between dispatcher iterations; the fast path is one
// relaxed atomic load.
func (s *SMP) checkpoint() {
	if s.stwFlag.Load() == 0 {
		return
	}
	s.leaveSlot()
	s.enterSlot()
}

// exclusive runs fn with every other hart parked at a checkpoint (or parked
// in this same function waiting for the lock — concurrent mutators
// serialize). The caller must hold a running slot. In deterministic or
// single-vCPU mode one goroutine drives every hart, so fn runs directly.
// In parallel mode the caller's metrics count the pause and the host time
// from its kick until every sibling parked; the other modes read no clock
// here.
func (s *SMP) exclusive(self *Engine, fn func()) {
	if !s.parallel {
		fn()
		return
	}
	s.mu.Lock()
	kicked := time.Now()
	s.running-- // release own slot
	s.stw++
	s.stwFlag.Store(1)
	for _, eng := range s.engines {
		if eng != self {
			eng.cpu.Kick.Store(true)
		}
	}
	for s.running != 0 {
		s.quiesce.Wait()
	}
	self.stats.STWPauses++
	self.stats.STWWaitNS += int64(time.Since(kicked))
	fn()
	s.stw--
	if s.stw == 0 {
		s.stwFlag.Store(0)
		for _, eng := range s.engines {
			eng.cpu.Kick.Store(false)
		}
	}
	s.quiesce.Broadcast()
	for s.stw > 0 {
		s.quiesce.Wait()
	}
	s.running++
	s.mu.Unlock()
}

// busTime is the device bus's view of the virtual clock. In parallel mode it
// sums the published (checkpoint-stamped) retire counts — reading a running
// sibling's state page would race with its generated code.
func (s *SMP) busTime() uint64 {
	if s.parallel {
		var sum uint64
		for _, eng := range s.engines {
			sum += eng.pubInstrs.Load()
		}
		return sum + s.idleOff
	}
	return s.engines[0].VirtualTime()
}

// skip advances the virtual clock over time every hart spent idle in wfi,
// and re-derives every hart's block-entry deadline against it.
func (s *SMP) skip(delta uint64) {
	s.idleOff += delta
	for _, e := range s.engines {
		e.refreshIRQ()
	}
}

// VCPU returns the engine driving vCPU i (register access, image loading,
// per-hart stats, trace recorders).
func (s *SMP) VCPU(i int) *Engine { return s.engines[i] }

// Halted reports whether every vCPU has halted, and vCPU 0's exit code.
func (s *SMP) Halted() (bool, uint64) { return s.Exit() }

// Run executes the machine until every vCPU halts or the budget expires
// (ErrBudget). budget counts steps of the shared budget unit: each vCPU may
// spend smp.DeciCyclesPerStep simulated deci-cycles per step. One vCPU runs
// the uniprocessor dispatcher (Engine.Run): the deterministic scheduler would
// add dispatcher round trips and so change the model.
func (s *SMP) Run(budget uint64) error {
	cycles := budget * smp.DeciCyclesPerStep
	switch {
	case s.N() == 1:
		return s.engines[0].Run(cycles)
	case s.Quantum > 0:
		return s.RunDet(cycles, s.Quantum)
	default:
		return s.RunParallel(cycles)
	}
}

// Metrics returns the machine's metrics summed over its vCPUs.
func (s *SMP) Metrics() metrics.Snapshot {
	harts := make([]metrics.Snapshot, len(s.engines))
	for i, e := range s.engines {
		harts[i] = e.Metrics()
	}
	return metrics.Sum(harts...)
}

// GuestInstrs returns the instructions vCPU i has retired.
func (s *SMP) GuestInstrs(i int) uint64 { return s.engines[i].GuestInstrs() }

// SetTrace attaches a trace recorder to vCPU i (nil detaches), with the
// engine's block-entry hook (Engine.SetTrace).
func (s *SMP) SetTrace(i int, r *trace.Recorder) { s.engines[i].SetTrace(r) }

// RunDet executes the machine under the deterministic round-robin scheduler:
// fixed quanta of retired instructions per hart, one goroutine. budget is the
// per-hart simulated-cycle budget (ErrBudget past it, as in Engine.Run). A
// slice runs until at least quantum further instructions retire; its end is
// folded into the block-entry deadline (refreshIRQ), so chained and
// superblocked entries observe it at exactly the boundaries the golden
// interpreter checks. A zero quantum is refused: no slice would run a block.
func (s *SMP) RunDet(budget, quantum uint64) error {
	if quantum == 0 {
		return fmt.Errorf("core: RunDet needs a quantum of at least one instruction")
	}
	limits := make([]uint64, len(s.engines))
	for i, e := range s.engines {
		limits[i] = e.cpu.Stats.Cycles + budget
	}
	return smp.RunRR(s.Harts, func(i int) error {
		e := s.engines[i]
		e.sliceEnd = e.GuestInstrs() + quantum
		e.refreshIRQ()
		err := e.run(e.sliceEnd, limits[i])
		e.sliceEnd = ^uint64(0)
		e.refreshIRQ()
		return err
	})
}

// RunParallel executes the machine with one goroutine per hart until every
// hart halts, each under the given simulated-cycle budget, and returns the
// error of the lowest-numbered hart that failed. Captive only. Parallel mode is not deterministic; the
// difftest lanes use RunDet.
func (s *SMP) RunParallel(budget uint64) error {
	if s.engines[0].Kind == BackendQEMU {
		return fmt.Errorf("core: the QEMU baseline supports SMP only under the deterministic scheduler")
	}
	s.parallel = true
	for _, e := range s.engines {
		e.pubInstrs.Store(e.GuestInstrs())
	}
	defer func() { s.parallel = false }()
	errs := make([]error, len(s.engines))
	var wg sync.WaitGroup
	for i, e := range s.engines {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			s.enterSlot()
			defer s.leaveSlot()
			errs[i] = e.run(^uint64(0), e.cpu.Stats.Cycles+budget)
			e.pubInstrs.Store(e.GuestInstrs())
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
