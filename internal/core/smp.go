package core

// SMP execution (ISSUE 8): N vCPU engines over one guest RAM, one
// port-driven system model and one physically-indexed code cache. The
// translation state — the code cache (which owns the exit and chain
// indexes), the profile-slot map and the idle-skip offset of the virtual
// clock — lives in the per-machine shared struct; each engine keeps its own
// VX64 CPU, register state, host MMU (a disjoint slice of the page-table
// pool), iTLB, system model, stats and trace recorder.
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

// shared is the translation and clock state the vCPU engines of one machine
// share. A single-vCPU machine owns a private shared with one engine in it,
// which keeps every uniprocessor code path bit-identical to the pre-SMP
// engine.
type shared struct {
	mu      sync.Mutex
	quiesce *sync.Cond // broadcast on running/stw transitions
	engines []*Engine

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

// enterSlot joins the running set, waiting out any stop-the-world.
func (sh *shared) enterSlot() {
	sh.mu.Lock()
	for sh.stw > 0 {
		sh.quiesce.Wait()
	}
	sh.running++
	sh.mu.Unlock()
}

// leaveSlot leaves the running set, releasing any waiting mutator.
func (sh *shared) leaveSlot() {
	sh.mu.Lock()
	sh.running--
	sh.quiesce.Broadcast()
	sh.mu.Unlock()
}

// checkpoint parks the calling hart while a sibling holds the world
// stopped. Called between dispatcher iterations; the fast path is one
// relaxed atomic load.
func (sh *shared) checkpoint() {
	if sh.stwFlag.Load() == 0 {
		return
	}
	sh.leaveSlot()
	sh.enterSlot()
}

// exclusive runs fn with every other hart parked at a checkpoint (or parked
// in this same function waiting for the lock — concurrent mutators
// serialize). The caller must hold a running slot. In deterministic or
// single-vCPU mode one goroutine drives every hart, so fn runs directly.
// In parallel mode the caller's metrics count the pause and the host time
// from its kick until every sibling parked; the other modes read no clock
// here.
func (sh *shared) exclusive(self *Engine, fn func()) {
	if !sh.parallel {
		fn()
		return
	}
	sh.mu.Lock()
	kicked := time.Now()
	sh.running-- // release own slot
	sh.stw++
	sh.stwFlag.Store(1)
	for _, eng := range sh.engines {
		if eng != self {
			eng.cpu.Kick.Store(true)
		}
	}
	for sh.running != 0 {
		sh.quiesce.Wait()
	}
	self.stats.STWPauses++
	self.stats.STWWaitNS += int64(time.Since(kicked))
	fn()
	sh.stw--
	if sh.stw == 0 {
		sh.stwFlag.Store(0)
		for _, eng := range sh.engines {
			eng.cpu.Kick.Store(false)
		}
	}
	sh.quiesce.Broadcast()
	for sh.stw > 0 {
		sh.quiesce.Wait()
	}
	sh.running++
	sh.mu.Unlock()
}

// busTime is the device bus's view of the virtual clock. In parallel mode it
// sums the published (checkpoint-stamped) retire counts — reading a running
// sibling's state page would race with its generated code.
func (sh *shared) busTime() uint64 {
	if sh.parallel {
		var sum uint64
		for _, eng := range sh.engines {
			sum += eng.pubInstrs.Load()
		}
		return sum + sh.idleOff
	}
	return sh.engines[0].VirtualTime()
}

// skip advances the virtual clock over time every hart spent idle in wfi,
// and re-derives every hart's block-entry deadline against it.
func (sh *shared) skip(delta uint64) {
	sh.idleOff += delta
	for _, e := range sh.engines {
		e.refreshIRQ()
	}
}

// newEngines builds one engine per vCPU of the VM over a fresh shared
// struct. With more than one vCPU, cross-block chaining is disabled (see the
// package comment above).
func newEngines(vm *hvm.VM, g port.Port, module *gen.Module) ([]*Engine, error) {
	sh := &shared{}
	sh.quiesce = sync.NewCond(&sh.mu)
	l := vm.Layout
	sh.cache = newCodeCache(vm.Phys, vm.CPUs, l.CodePA, l.CodeSize)
	for id := range vm.CPUs {
		e, err := newEngine(vm, g, module, id, sh)
		if err != nil {
			return nil, err
		}
		sh.engines = append(sh.engines, e)
	}
	if len(sh.engines) > 1 {
		for _, e := range sh.engines {
			e.ChainingOff = true
		}
	}
	// The device bus ticks on the same virtual clock the guest reads
	// through CNTVCT/time: retired instructions, not simulated host cycles.
	// Host cycles are engine-dependent (dispatch and JIT charges differ by
	// backend), so a timer driven by them would fire at different guest
	// instructions on different engines; the virtual clock makes interrupt
	// arrival bit-identical everywhere.
	vm.Bus.Cycles = sh.busTime
	for _, e := range sh.engines {
		e.refreshIRQ()
	}
	return sh.engines, nil
}

// SMP is an N-vCPU Captive (or, via NewSMPQEMU, QEMU-baseline) machine. It
// implements the machine seam (internal/machine); a uniprocessor is the
// one-vCPU case.
type SMP struct {
	vm *hvm.VM
	sh *shared

	// Quantum selects how Run drives more than one vCPU: the deterministic
	// scheduler with this retired-instruction quantum, or (0) RunParallel.
	Quantum uint64
}

// NewSMP creates one Captive engine per vCPU of the VM (hvm.Config.VCPUs),
// sharing guest RAM, the system model behind the device bus, and the
// physically-indexed code cache.
func NewSMP(vm *hvm.VM, g port.Port, module *gen.Module) (*SMP, error) {
	engines, err := newEngines(vm, g, module)
	if err != nil {
		return nil, err
	}
	return &SMP{vm: vm, sh: engines[0].sh}, nil
}

// NewSMPQEMU creates the QEMU-style baseline with N vCPUs. Only the
// deterministic scheduler may drive it (RunParallel refuses): the baseline's
// virtually-indexed cache and global flushes assume a quiesced machine.
func NewSMPQEMU(vm *hvm.VM, g port.Port, module *gen.Module) (*SMP, error) {
	s, err := NewSMP(vm, g, module)
	if err != nil {
		return nil, err
	}
	for _, e := range s.sh.engines {
		e.Kind = BackendQEMU
		e.SoftFP = true
		e.softTLBOff = int32(vm.Layout.SoftTLBOf(e.Hooks.HartID) - e.statePA)
		e.flushSoftTLB()
	}
	return s, nil
}

// N returns the vCPU count.
func (s *SMP) N() int { return len(s.sh.engines) }

// VCPU returns the engine driving vCPU i (register access, image loading,
// per-hart stats, trace recorders).
func (s *SMP) VCPU(i int) *Engine { return s.sh.engines[i] }

// Console returns the guest UART output.
func (s *SMP) Console() string { return s.vm.Bus.Console() }

// Halted reports whether every vCPU has halted, and vCPU 0's exit code.
func (s *SMP) Halted() (bool, uint64) {
	for _, e := range s.sh.engines {
		if !e.Guest.Halted {
			return false, 0
		}
	}
	return true, s.sh.engines[0].ExitCode
}

// Run executes the machine until every vCPU halts or the budget expires
// (ErrBudget). budget counts steps of the shared budget unit: each vCPU may
// spend smp.DeciCyclesPerStep simulated deci-cycles per step. One vCPU runs
// the uniprocessor dispatcher (Engine.Run): the deterministic scheduler would
// add dispatcher round trips and so change the model.
func (s *SMP) Run(budget uint64) error {
	cycles := budget * smp.DeciCyclesPerStep
	switch {
	case s.N() == 1:
		return s.sh.engines[0].Run(cycles)
	case s.Quantum > 0:
		return s.RunDet(cycles, s.Quantum)
	default:
		return s.RunParallel(cycles)
	}
}

// LoadImage copies an image into guest RAM and points every vCPU at entry.
func (s *SMP) LoadImage(data []byte, gpa, entry uint64) error {
	if err := s.vm.RAM.Load(data, gpa); err != nil {
		return err
	}
	for _, e := range s.sh.engines {
		e.SetPC(entry)
	}
	return nil
}

// LoadData copies bytes into guest RAM.
func (s *SMP) LoadData(data []byte, gpa uint64) error { return s.vm.RAM.Load(data, gpa) }

// Exit reports whether every vCPU has halted, and vCPU 0's exit code.
func (s *SMP) Exit() (bool, uint64) { return s.Halted() }

// ReadRAM copies guest RAM starting at pa into dst.
func (s *SMP) ReadRAM(pa uint64, dst []byte) error { return s.vm.RAM.Copy(dst, pa) }

// Metrics returns the machine's metrics summed over its vCPUs.
func (s *SMP) Metrics() metrics.Snapshot {
	harts := make([]metrics.Snapshot, len(s.sh.engines))
	for i, e := range s.sh.engines {
		harts[i] = e.Metrics()
	}
	return metrics.Sum(harts...)
}

// The per-hart view of the machine seam: vCPU i's state.

func (s *SMP) Reg(i, n int) uint64               { return s.sh.engines[i].Reg(n) }
func (s *SMP) SetReg(i, n int, v uint64)         { s.sh.engines[i].SetReg(n, v) }
func (s *SMP) FReg(i, n int) uint64              { return s.sh.engines[i].FReg(n) }
func (s *SMP) PC(i int) uint64                   { return s.sh.engines[i].PC() }
func (s *SMP) RegState(i int) []byte             { return s.sh.engines[i].RegState() }
func (s *SMP) Sys(i int) port.Sys                { return s.sh.engines[i].Sys }
func (s *SMP) HartExit(i int) (bool, uint64)     { return s.sh.engines[i].Halted() }
func (s *SMP) GuestInstrs(i int) uint64          { return s.sh.engines[i].GuestInstrs() }
func (s *SMP) SetTrace(i int, r *trace.Recorder) { s.sh.engines[i].SetTrace(r) }

// RunDet executes the machine under the deterministic round-robin scheduler:
// fixed quanta of retired instructions per hart, one goroutine. budget is the
// per-hart simulated-cycle budget (ErrBudget past it, as in Engine.Run).
func (s *SMP) RunDet(budget, quantum uint64) error {
	harts := make([]*smp.Guest, len(s.sh.engines))
	limits := make([]uint64, len(s.sh.engines))
	for i, e := range s.sh.engines {
		harts[i], limits[i] = &e.Guest, e.cpu.Stats.Cycles+budget
	}
	return smp.RunRR(harts, func(i int) error {
		return s.sh.engines[i].runSlice(quantum, limits[i])
	})
}

// RunParallel executes the machine with one goroutine per hart until every
// hart halts, each under the given simulated-cycle budget. Captive only.
// Parallel mode is not deterministic; the difftest lanes use RunDet.
func (s *SMP) RunParallel(budget uint64) error {
	sh := s.sh
	if sh.engines[0].Kind == BackendQEMU {
		return fmt.Errorf("core: the QEMU baseline supports SMP only under the deterministic scheduler")
	}
	sh.parallel = true
	for _, e := range sh.engines {
		e.pubInstrs.Store(e.GuestInstrs())
	}
	defer func() { sh.parallel = false }()
	errs := make([]error, len(sh.engines))
	var wg sync.WaitGroup
	for i := range sh.engines {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			errs[i] = e.runParallelHart(budget)
		}(i, sh.engines[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runParallelHart is one hart's goroutine body: the plain dispatcher loop
// with a stop-the-world checkpoint between iterations and a published
// retire count for the shared virtual clock.
func (e *Engine) runParallelHart(budget uint64) error {
	sh := e.sh
	limit := e.cpu.Stats.Cycles + budget
	sh.enterSlot()
	defer sh.leaveSlot()
	for !e.Guest.Halted {
		if e.cpu.Stats.Cycles >= limit {
			return ErrBudget
		}
		sh.checkpoint()
		e.pubInstrs.Store(e.GuestInstrs())
		if err := e.dispatchOnce(limit); err != nil {
			return err
		}
	}
	e.pubInstrs.Store(e.GuestInstrs())
	return nil
}

// runSlice executes until at least quantum further instructions retire, the
// hart halts or parks in wfi, or the cycle limit trips. The slice end is
// folded into the block-entry deadline (refreshIRQ), so chained and
// superblocked entries observe it at exactly the boundaries the golden
// interpreter checks.
func (e *Engine) runSlice(quantum, limit uint64) error {
	end := e.GuestInstrs() + quantum
	e.sliceEnd = end
	defer func() {
		e.sliceEnd = ^uint64(0)
		e.refreshIRQ()
	}()
	e.refreshIRQ()
	for !e.Guest.Halted && !e.Waiting && e.GuestInstrs() < end {
		if e.cpu.Stats.Cycles >= limit {
			return ErrBudget
		}
		if err := e.dispatchOnce(limit); err != nil {
			return err
		}
	}
	return nil
}
