package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/hvm"
	"captive/internal/metrics"
	"captive/internal/smp"
	"captive/internal/softfloat"
	"captive/internal/trace"
	"captive/internal/vx64"
)

// Dispatcher and JIT cost constants (deci-cycles). The JIT charge models the
// translation work of the online pipeline; Captive's per-block charge is
// deliberately higher than the QEMU baseline's (§3.4: Captive translates
// ~2.6× slower per block because of its more aggressive online pipeline).
const (
	costDispatch     = 200  // Captive dispatcher round trip per block entry
	costJITBase      = 3000 // per-block translation overhead
	costJITPerLIR    = 90   // per low-level IR instruction translated
	costSoftFPAdd    = 500  // soft-float helper bodies (§3.6.2 ablation)
	costSoftFPMul    = 700
	costSoftFPDiv    = 1800
	costSoftFPSqrt   = 2200
	costMMIOEmulate  = 3000 // trap-and-emulate device access
	costInjectExc    = 1200 // guest exception injection bookkeeping
	costInvalidateTr = 2500 // host-mapping invalidation on guest TLB ops
	// costFaultLookup is the extra price Captive pays to turn a host page
	// fault into a guest exception: reconstructing the faulting guest
	// virtual address and access kind from the trapped state ("the
	// book-keeping required to figure out which virtual address caused
	// the fault", §3.5 — the reason Captive loses the Data-Fault
	// micro-benchmark).
	costFaultLookup = 15000
	// costQDispatch is the QEMU baseline's dispatcher round trip: its
	// cpu_exec loop performs a hashed tb lookup plus interrupt checks and
	// is measurably heavier than Captive's direct dispatch.
	costQDispatch = 400
)

// Engine is the Captive execution engine for one guest vCPU (or, with
// Kind == BackendQEMU, the QEMU-style baseline). Every engine is one vCPU of
// an SMP machine (smp.go); a uniprocessor is a one-vCPU SMP.
type Engine struct {
	// Guest is the vCPU's guest state, its register file in host physical
	// memory, and the guest rules every engine applies (internal/smp); the
	// engine adds its costs and caches around them.
	smp.Guest

	vm     *hvm.VM
	cpu    *vx64.CPU
	module *gen.Module

	// sh is the machine: the translation and clock state the vCPUs share
	// (one engine per entry of sh.engines).
	sh *SMP

	// Per-vCPU state-page placement (hvm.Layout.StatePAOf(id)).
	statePA uint64

	// Kind selects the Captive design or the QEMU-baseline design.
	Kind BackendKind
	// SoftFP selects the §3.6.2 helper-call floating-point lowering.
	SoftFP bool
	// ChainingOff disables block chaining (Fig. 21 methodology).
	ChainingOff bool

	// softTLBOff is the R13-relative offset of the baseline's softmmu TLB.
	softTLBOff int32
	lastEL     uint8

	mmu   *hostMMU
	cache *codeCache

	// The JIT's scratch, reset (not reallocated) per translated block:
	// scanBuf is the decode buffer of the shared block scanner
	// (port.ScanBlock) — block formation itself lives in the port layer so
	// every engine and the golden interpreter cut blocks identically — then
	// the partial evaluator, the emitter, the register allocator and the
	// encoder (translate.go).
	scanBuf []gen.Decoded
	tr      gen.Translator
	em      Emitter
	ra      allocator
	enc     encoder

	curMode uint64 // 0 = low half, 1 = high half

	// iTLB caches fetch translations between guest TLB flushes. The hot
	// path is a direct-mapped array probe (mirroring vx64.CPU.tlb); the
	// overflow map keeps entries whose pages collide in the array, so the
	// cache never forgets a translation between flushes — eviction would
	// re-walk and re-charge guest-walk cycles, changing the timing model.
	// The map is only consulted (and only allocated) on an array miss.
	iTLB     [itlbSize]itlbEntry
	iTLBOver map[uint64]itlbEntry

	// lastExit is the block whose dispatch TRAP ended the most recent
	// execution (codeCache.exitAt), or nil. It is resolved only for
	// chaining, so it stays nil with ChainingOff.
	lastExit *Block

	// sliceEnd is the retired-instruction count at which the current
	// deterministic-scheduler slice ends (^0 outside a RunDet slice);
	// refreshIRQ folds it into the block-entry deadline.
	sliceEnd uint64
	// pubInstrs is this hart's retire count as last published at a
	// dispatcher checkpoint — what siblings (and the device bus) read in
	// parallel mode instead of racing on the live state page.
	pubInstrs atomic.Uint64

	// stats holds the engine's own counters and JIT phase times, updated
	// in place; Metrics adds what it derives from the CPU and state page.
	stats metrics.Snapshot
}

// itlbSize is the direct-mapped iTLB's entry count; fetch pages 16 MiB
// apart collide and overflow to the map.
const itlbSize = 4096

type itlbEntry struct {
	vaPage  uint64 // tag; ^0 when invalid
	gpaPage uint64
	user    bool
}

// New creates a Captive engine inside the given host VM, executing the
// guest architecture described by g. module must be a module built by (or
// compatible with) g.Module — difftest and the benchmarks build modules per
// offline level and pass them in directly. The VM must be a single-vCPU
// layout; multi-vCPU machines go through NewSMP.
func New(vm *hvm.VM, g port.Port, module *gen.Module) (*Engine, error) {
	return newUP(vm, g, module, BackendCaptive)
}

// newUP creates the one engine of a uniprocessor machine, refusing a VM with
// more vCPUs.
func newUP(vm *hvm.VM, g port.Port, module *gen.Module, kind BackendKind) (*Engine, error) {
	s, err := newSMP(vm, g, module, kind)
	if err != nil {
		return nil, err
	}
	if len(s.engines) != 1 {
		return nil, fmt.Errorf("core: New on a %d-vCPU VM; use NewSMP", len(s.engines))
	}
	return s.engines[0], nil
}

// newEngine creates the engine for vCPU id of the machine sh.
func newEngine(vm *hvm.VM, g port.Port, module *gen.Module, id int, sh *SMP) (*Engine, error) {
	if module.Layout.Size > 0x1000 {
		return nil, fmt.Errorf("core: register file (%d bytes) exceeds its page", module.Layout.Size)
	}
	l := vm.Layout
	e := &Engine{
		vm: vm, cpu: vm.CPUs[id], module: module, sh: sh,
		statePA:  l.StatePAOf(id),
		sliceEnd: ^uint64(0),
	}
	e.Init(g, module, vm.Phys[l.RegFilePAOf(id):], vm.RAM, vm.Bus, port.Hooks{
		HartID: id, CycleCount: e.VirtualTime, TranslationChanged: e.translationChanged,
	}, sh.skip)
	e.em.eng = e
	e.clearITLB()
	poolBase, poolSize := l.PTPoolOf(id)
	e.mmu = newHostMMU(vm.Phys, e.cpu, poolBase, poolSize)
	e.cache = sh.cache

	// Pin the fixed registers (package comment of emitter.go).
	cpu := e.cpu
	cpu.R[vx64.RSTA] = hvm.DirectVA(e.statePA)
	cpu.R[vx64.RRF] = hvm.DirectVA(l.RegFilePAOf(id))
	cpu.R[vx64.RSP] = hvm.DirectVA(l.StackTopOf(id))
	cpu.R[vx64.R10] = hvm.LowHalfMask
	cpu.R[vx64.R9] = 0
	cpu.SetCR3(e.mmu.rootCR3(0), true)

	e.registerHelpers()
	return e, nil
}

// --- guest state access -------------------------------------------------------

// Halted reports whether the guest executed hlt, and the exit code.
func (e *Engine) Halted() (bool, uint64) { return e.Guest.Halted, e.ExitCode }

// GuestInstrs returns the number of retired guest instructions (maintained
// by the instrumentation prologue of every translated block).
func (e *Engine) GuestInstrs() uint64 {
	return e.vm.Phys.R64(e.statePA + hvm.StateICount)
}

// VirtualTime returns the guest-visible virtual counter: retired guest
// instructions (summed across every hart of the machine) plus the time
// skipped while idle in wfi. Unlike the simulated host clock (deci-cycles,
// which embed engine-specific dispatch and JIT charges), this clock advances
// identically across all three engines — it is what the timer compares
// against and what CNTVCT/time read. In parallel mode, sibling counts come
// from their checkpoint-published values; the live state page of a running
// sibling is never read.
func (e *Engine) VirtualTime() uint64 {
	sh := e.sh
	var sum uint64
	if sh.parallel {
		for _, eng := range sh.engines {
			if eng == e {
				sum += eng.GuestInstrs()
			} else {
				sum += eng.pubInstrs.Load()
			}
		}
	} else {
		for _, eng := range sh.engines {
			sum += eng.GuestInstrs()
		}
	}
	return sum + sh.idleOff
}

// refreshIRQ recomputes the block-entry interrupt deadline (the StateIRQDl
// state-page slot read by the IRQCHK instruction in every block's
// instrumentation prologue, in retired-instruction units) after any event
// that can change deliverability: system-register writes, exception
// entry/return, timer MMIO, and wfi idle skips. Invariant: the slot holds a
// finite deadline only when delivery is guaranteed once the deadline is
// reached — an IRQCHK trap that did not end in delivery would re-enter the
// same block and trap again forever.
func (e *Engine) refreshIRQ() {
	line := e.TimerLine()
	dl := ^uint64(0)
	if e.Sys.PendingIRQ(line, &e.Hooks) {
		dl = 0
	} else if !line {
		if cmp, armed := e.Timer(); armed && e.Sys.PendingIRQ(true, &e.Hooks) {
			// Armed and deliverable once it fires: the line rises at
			// virtual time cmp. In this hart's own retired-count units
			// that is cmp minus everything else on the virtual clock —
			// the siblings' retire counts and the idle skip (for a
			// uniprocessor: cmp - idleOff exactly as before). No
			// underflow: line low means VirtualTime is still below cmp.
			dl = cmp - (e.VirtualTime() - e.GuestInstrs())
		}
	}
	if e.sliceEnd < dl {
		dl = e.sliceEnd
	}
	e.vm.Phys.W64(e.statePA+hvm.StateIRQDl, dl)
}

// --- exception injection -------------------------------------------------------

// raise injects a guest exception (smp.Guest.Raise) at its injection cost.
// Exception entry changes interrupt deliverability (GA64 masks IRQs on every
// entry; RV64 changes the privilege mode the gating depends on).
func (e *Engine) raise(ex port.Exception) {
	e.cpu.Stats.Cycles += costInjectExc
	e.Raise(ex)
	e.refreshIRQ()
}

// translationChanged responds to guest TTBR/SCTLR writes and TLB flushes:
// host mappings and the dispatcher's translation cache are dropped; the
// translation cache of *code* is retained because it is indexed by guest
// physical address (§2.6) — only the chain links are reset.
func (e *Engine) translationChanged() {
	e.Record(trace.TLBFlush, 0, e.cpu.R[vx64.RPC], 0)
	e.stats.TransFlushes++
	e.clearITLB()
	if e.Kind == BackendQEMU {
		// The baseline's translations are virtually indexed: everything
		// goes — code cache and softmmu TLB (§2.6's contrast).
		e.cpu.Stats.Cycles += costSoftTLBFlush
		e.flushSoftTLB()
		e.flushTranslations()
		return
	}
	e.cpu.Stats.Cycles += costInvalidateTr
	e.mmu.reset()
	// Chain links compare guest PCs, so a regime change on any hart drops
	// them all (SMP machines never install any: chaining is off for N > 1).
	// Every live chain is a link, so this empties every incoming list.
	for _, l := range e.cache.chained {
		e.Record(trace.ChainUnpatch, 0, 0, l.from.GPA)
		e.cache.unchain(l.from)
		l.to.incoming = l.to.incoming[:0]
	}
	e.cache.chained = e.cache.chained[:0]
}

// clearITLB invalidates the fetch-translation cache (array and overflow).
func (e *Engine) clearITLB() {
	for i := range e.iTLB {
		e.iTLB[i].vaPage = ^uint64(0)
	}
	clear(e.iTLBOver)
}

// translatePC resolves the guest PC to a physical address for block lookup,
// injecting an instruction abort on failure. The Go-side iTLB caches
// fetch translations between guest TLB flushes: a direct-mapped array probe
// on the hot path, with colliding pages kept exactly in the overflow map.
func (e *Engine) translatePC(pc uint64) (uint64, bool) {
	vaPage := pc >> 12
	ent := &e.iTLB[vaPage&(itlbSize-1)]
	if ent.vaPage != vaPage {
		if over, ok := e.iTLBOver[vaPage]; ok {
			ent = &over
		} else {
			return e.translatePCSlow(pc)
		}
	}
	if e.Sys.EL() == 0 && !ent.user {
		e.raise(port.Exception{Kind: port.ExcInsnAbort, Addr: pc, PC: pc})
		return 0, false
	}
	return ent.gpaPage<<12 | pc&0xFFF, true
}

// translatePCSlow walks the guest page tables on an iTLB miss and fills the
// cache. The direct-mapped slot is preferred; a conflicting resident page
// is demoted to the overflow map so no translation is ever forgotten
// between flushes (a re-walk would re-charge walk cycles).
func (e *Engine) translatePCSlow(pc uint64) (uint64, bool) {
	vaPage := pc >> 12
	a := e.walked(e.Space.Fetch(pc))
	if a.Abort {
		e.raise(a.Exc)
		return 0, false
	}
	w := a.Walk
	slot := &e.iTLB[vaPage&(itlbSize-1)]
	if slot.vaPage != ^uint64(0) && slot.vaPage != vaPage {
		if e.iTLBOver == nil {
			e.iTLBOver = make(map[uint64]itlbEntry)
		}
		e.iTLBOver[slot.vaPage] = *slot
	}
	*slot = itlbEntry{vaPage: vaPage, gpaPage: w.PA >> 12, user: w.User}
	return w.PA&^uint64(0xFFF) | pc&0xFFF, true
}

// --- main loop -------------------------------------------------------

// ErrBudget is returned when Run hits its cycle budget before the guest
// halts: the budget sentinel every engine shares.
var ErrBudget = smp.ErrBudget

// Run executes the guest until it halts or the deci-cycle budget expires.
func (e *Engine) Run(budget uint64) error { return e.run(^uint64(0), e.cpu.Stats.Cycles+budget) }

// run is the dispatcher loop of every run mode: it dispatches until the hart
// halts or parks in wfi, end instructions have retired, or the simulated
// clock reaches limit (ErrBudget). A parallel hart passes a stop-the-world
// checkpoint and publishes its retire count before each dispatch.
func (e *Engine) run(end, limit uint64) error {
	for !e.Guest.Halted && !e.Waiting {
		n := e.GuestInstrs()
		if n >= end {
			break
		}
		if e.cpu.Stats.Cycles >= limit {
			return ErrBudget
		}
		if e.sh.parallel {
			e.sh.checkpoint()
			e.pubInstrs.Store(n)
		}
		if err := e.dispatchOnce(limit); err != nil {
			return err
		}
	}
	return nil
}

// dispatchOnce is one dispatcher iteration: interrupt delivery, block
// lookup/translation, chaining, and execution until the next trap back.
// In parallel SMP mode this is the unit between stop-the-world checkpoints.
func (e *Engine) dispatchOnce(limit uint64) error {
	e.stats.DispatchLoops++
	if e.Kind == BackendQEMU {
		e.cpu.Stats.Cycles += costQDispatch
	} else {
		e.cpu.Stats.Cycles += costDispatch
	}

	// Interrupt delivery point: every dispatcher entry is a block boundary,
	// the one the IRQCHK prologue check returns to.
	if e.DeliverIRQ() {
		e.cpu.Stats.Cycles += costInjectExc
		if e.Guest.Halted {
			return nil
		}
		e.refreshIRQ()
	}
	pc := e.PC()
	el := e.Sys.EL()
	if e.Kind == BackendQEMU && el != e.lastEL {
		// The baseline keeps one softmmu TLB: privilege changes flush
		// it (QEMU proper avoids this with per-mmu-index TLBs).
		e.flushSoftTLB()
		e.cpu.Stats.Cycles += costSoftTLBFlush
		e.lastEL = el
	}
	gpa, ok := e.translatePC(pc)
	if !ok {
		return nil // abort injected; dispatch the handler
	}
	key := gpa
	if e.Kind == BackendQEMU {
		key = pc
	}
	blk := e.cache.lookup(key, el)
	if blk == nil {
		// Translation mutates the shared code cache: in parallel mode it
		// runs with every sibling parked (a concurrent translator may
		// install the same key first — re-probe inside).
		var err error
		e.sh.exclusive(e, func() {
			if blk = e.cache.lookup(key, el); blk == nil {
				blk, err = e.translateBlock(pc, gpa, el)
			}
		})
		if err != nil {
			return err
		}
	}
	// Chain the previous block's exit to this one (§2.6): install a
	// PC-compare slot so the transition bypasses the dispatcher.
	if le := e.lastExit; le != nil && !e.ChainingOff {
		// The baseline only chains direct-branch exits (TCG's goto_tb);
		// indirect control flow re-enters its dispatcher every time.
		if le.Valid && le.EL == el && (e.Kind != BackendQEMU || le.DirectExit) {
			if e.cache.chain(le, blk, pc) {
				e.stats.BlockChains++
				e.Record(trace.ChainPatch, 0, pc, le.GPA)
			}
		}
	}
	e.lastExit = nil

	if err := e.execute(blk, pc, el, limit); err != nil {
		return err
	}
	// Control is back in the dispatcher: close the open profile
	// interval so dispatch, translation and injection costs are never
	// attributed to a guest block.
	e.cpu.ProfPause()
	return nil
}

// execute runs one translated block (and anything it chains to).
func (e *Engine) execute(blk *Block, pc uint64, el uint8, limit uint64) error {
	cpu := e.cpu
	if el == 0 {
		cpu.CPL = 3
	} else {
		cpu.CPL = 0
	}
	mode := pc >> 63
	if mode != e.curMode {
		e.setMode(mode)
	}
	cpu.R[vx64.RPC] = pc
	cpu.RIP = blk.Entry

	for {
		slice := limit - min(cpu.Stats.Cycles, limit)
		if slice == 0 {
			e.SetPC(cpu.R[vx64.RPC])
			return nil
		}
		trap := cpu.Run(slice)
		switch trap.Kind {
		case vx64.TrapSoft:
			if trap.Vec == dispatchTrapVec {
				// Normal exit to dispatcher.
				e.Record(trace.BlockExit, 0, cpu.R[vx64.RPC], 0)
				e.SetPC(cpu.R[vx64.RPC])
				// Only chaining reads the exit. Resolve it here: a
				// translation before the next dispatch may flush.
				if !e.ChainingOff {
					e.lastExit = e.cache.exitAt(e.trapPA(trap))
				}
				return nil
			}
			return fmt.Errorf("core: unexpected soft trap %d at rip %#x", trap.Vec, trap.RIP)
		case vx64.TrapHelperExit:
			// Helper redirected control (exception, halt); guest PC is in
			// the register file already.
			return nil
		case vx64.TrapPageFault, vx64.TrapBusError:
			done, err := e.handleHostFault(trap)
			if err != nil {
				return err
			}
			if done {
				// Guest exception injected; back to the dispatcher.
				return nil
			}
			// Resolved (mapping installed / MMIO emulated): resume.
			continue
		case vx64.TrapIRQ:
			// The block-entry IRQCHK hit its deadline: the guest PC still
			// points at the block start (nothing retired). Back to the
			// dispatcher, which performs the delivery; no chaining from
			// this exit. The deadline is re-derived first: in parallel
			// mode a sibling may have moved the timer since this hart
			// armed it, and a stale deadline would trap every block entry
			// without anything to deliver.
			e.SetPC(cpu.R[vx64.RPC])
			e.refreshIRQ()
			return nil
		case vx64.TrapBudget:
			e.SetPC(cpu.R[vx64.RPC])
			return nil
		default:
			return fmt.Errorf("core: unexpected trap %v (guest pc %#x)", trap, cpu.R[vx64.RPC])
		}
	}
}

// trapPA converts the RIP of a dispatch TRAP back to the epilogue's
// physical address (RIP points just past the 2-byte TRAP).
func (e *Engine) trapPA(trap *vx64.Trap) uint64 {
	return trap.RIP - 2 - hvm.DirectBase
}

func (e *Engine) setMode(mode uint64) {
	e.curMode = mode
	e.cpu.SetCR3(e.mmu.rootCR3(mode), false)
	if mode == 0 {
		e.cpu.R[vx64.R9] = 0
	} else {
		e.cpu.R[vx64.R9] = ^uint64(0)
	}
}

// unmask reconstructs the guest VA from a masked (low-half) host VA.
func (e *Engine) unmask(va uint64) uint64 {
	if e.curMode == 1 {
		return va | ^uint64(hvm.LowHalfMask)
	}
	return va
}

// handleHostFault resolves a host page fault raised by translated guest
// code: demand-populate the host page tables from the guest's (§2.7.3),
// emulate MMIO, detect self-modifying code (§2.6), or inject a guest
// exception. It returns done=true when a guest exception was injected.
func (e *Engine) handleHostFault(trap *vx64.Trap) (bool, error) {
	e.stats.HostFaults++
	va := trap.Addr
	if va > hvm.LowHalfMask {
		return false, fmt.Errorf("core: engine fault outside guest range: %v", trap)
	}
	// Mode at fault time from the active PCID.
	e.curMode = 0
	if e.cpu.CR3&0xFFF == pcidHigh {
		e.curMode = 1
	}
	gva := e.unmask(va)
	write := trap.Access == vx64.AccessWrite
	guestPC := e.cpu.R[vx64.RPC]

	// The host MMU maps one page per fault, so the faulting byte is
	// classified: a store's last-byte page faults on its own.
	a := e.walked(e.Space.Data(gva, 1, write, guestPC))
	switch {
	case a.Abort:
		e.cpu.Stats.Cycles += costFaultLookup
		e.raise(a.Exc)
		return true, nil
	case a.Device:
		return false, e.emulateMMIO(trap, a.Walk.PA)
	}
	w := a.Walk
	gpaPage := w.PA >> 12
	if write && e.cache.pageHasCode(gpaPage) {
		// Self-modifying code: drop the page's translations, which lifts
		// the protection on every hart, and retry the store (§2.6). The
		// invalidation is a shootdown — it bumps every sibling's superblock
		// generations, so it runs with siblings parked in parallel mode; a
		// sibling's stale read-only mapping re-faults once, finds no code
		// on the page and reinstalls writable.
		e.Record(trace.SMCInval, 0, guestPC, gpaPage<<12)
		e.stats.SMCInvals++
		e.sh.exclusive(e, func() { e.cache.invalidatePage(gpaPage) })
	}
	// Pages holding translated code are mapped read-only (SMC detection).
	writable := w.Write && !e.cache.pageHasCode(gpaPage)
	e.mmu.install(e.curMode, va&^uint64(0xFFF), gpaPage<<12, writable, w.User)
	return false, nil
}

// emulateMMIO performs a trapped device access using the decoded faulting
// instruction, then resumes past it — the classic trap-and-emulate path of a
// hardware hypervisor.
func (e *Engine) emulateMMIO(trap *vx64.Trap, gpa uint64) error {
	e.cpu.Stats.Cycles += costMMIOEmulate
	in := trap.Inst
	row := in.Op.Info()
	switch {
	case row.Form.Mem() && row.Dir == vx64.Load && row.Rd.Def():
		v := row.Extend(e.Device(gpa, row.Width, false, 0, e.cpu.R[vx64.RPC]))
		if row.Rd.FP() {
			e.cpu.X[in.Rd] = v
		} else {
			e.cpu.R[in.Rd] = v
		}
	case row.Form.Mem() && row.Dir == vx64.Store:
		v := e.cpu.R[in.Rs]
		if row.Rs.FP() {
			v = e.cpu.X[in.Rs]
		}
		e.Device(gpa, row.Width, true, v, e.cpu.R[vx64.RPC])
		// A device write may have armed, disarmed or retargeted the timer.
		e.refreshIRQ()
	default:
		return fmt.Errorf("core: MMIO fault from non-memory instruction %v", in)
	}
	e.cpu.RIP = trap.NextRIP
	return nil
}

// --- helpers -------------------------------------------------------

func (e *Engine) stateSlot(off int64) uint64 {
	return e.vm.Phys.R64(e.statePA + uint64(off))
}

func (e *Engine) setRet(v uint64) {
	e.vm.Phys.W64(e.statePA+hvm.StateRet, v)
}

func (e *Engine) registerHelpers() {
	h := make([]vx64.HelperFunc, helperCount)
	h[hSwitchSpace] = func(c *vx64.CPU) vx64.HelperAction {
		e.setMode(e.curMode ^ 1)
		c.Stats.Cycles += vx64.CostWrCR3PCID
		return vx64.HelperContinue
	}
	h[hSysRead] = func(c *vx64.CPU) vx64.HelperAction {
		idx := e.stateSlot(hvm.StateArg0)
		v, ok := e.Sys.ReadReg(idx, &e.Hooks)
		if !ok {
			e.raise(port.Exception{Kind: port.ExcUndefined, PC: c.R[vx64.RPC]})
			return vx64.HelperExit
		}
		e.setRet(v)
		return vx64.HelperContinue
	}
	h[hSysWrite] = func(c *vx64.CPU) vx64.HelperAction {
		idx, val := e.stateSlot(hvm.StateArg0), e.stateSlot(hvm.StateArg1)
		if !e.Sys.WriteReg(idx, val, &e.Hooks) {
			e.raise(port.Exception{Kind: port.ExcUndefined, PC: c.R[vx64.RPC]})
			return vx64.HelperExit
		}
		// The write may have unmasked or enabled an interrupt source
		// (DAIF/IRQEN, mstatus/mie/mideleg); the rest of this block (and
		// anything it chains to) runs before the next dispatcher entry, so
		// the block-entry deadline must be refreshed here.
		e.refreshIRQ()
		return vx64.HelperContinue
	}
	h[hSVC] = func(c *vx64.CPU) vx64.HelperAction {
		imm := e.stateSlot(hvm.StateArg0)
		e.raise(port.Exception{Kind: port.ExcSyscall, Imm: uint32(imm), PC: c.R[vx64.RPC] + 4})
		return vx64.HelperExit
	}
	h[hBRK] = func(c *vx64.CPU) vx64.HelperAction {
		imm := e.stateSlot(hvm.StateArg0)
		e.raise(port.Exception{Kind: port.ExcBreakpoint, Imm: uint32(imm), PC: c.R[vx64.RPC]})
		return vx64.HelperExit
	}
	h[hERet] = func(c *vx64.CPU) vx64.HelperAction {
		e.ERet()
		// The return restores the saved interrupt mask and privilege mode.
		e.refreshIRQ()
		return vx64.HelperExit
	}
	h[hTLBI] = func(c *vx64.CPU) vx64.HelperAction {
		e.translationChanged()
		return vx64.HelperContinue
	}
	h[hHlt] = func(c *vx64.CPU) vx64.HelperAction {
		e.Halt(e.stateSlot(hvm.StateArg0))
		return vx64.HelperExit
	}
	h[hWFI] = func(c *vx64.CPU) vx64.HelperAction {
		switch e.WFI(c.R[vx64.RPC], e.sh.parallel, len(e.sh.engines) == 1) {
		case smp.WFIRetry:
			// Bounded by the caller's cycle budget.
			runtime.Gosched()
		case smp.WFIHalt, smp.WFIPark:
			return vx64.HelperExit
		}
		// The wfi completes as a nop (after a skip, whose clock advance
		// refreshed the deadline, the line is high): the block's tail
		// advances the PC past it and exits to the dispatcher, which
		// delivers if the global mask allows.
		return vx64.HelperContinue
	}
	h[hUndef] = func(c *vx64.CPU) vx64.HelperAction {
		e.raise(port.Exception{Kind: port.ExcUndefined, PC: c.R[vx64.RPC]})
		return vx64.HelperExit
	}
	h[hFPFixup] = func(c *vx64.CPU) vx64.HelperAction {
		op := softfloat.FPOp(e.stateSlot(hvm.StateArg0))
		a, b := e.stateSlot(hvm.StateArg1), e.stateSlot(hvm.StateArg2)
		e.setRet(softfloat.RecomputeARM(op, a, b))
		return vx64.HelperContinue
	}
	h[hFPSoft] = func(c *vx64.CPU) vx64.HelperAction {
		op := softfloat.FPOp(e.stateSlot(hvm.StateArg0))
		a, b := e.stateSlot(hvm.StateArg1), e.stateSlot(hvm.StateArg2)
		e.setRet(softfloat.RecomputeARM(op, a, b))
		switch op {
		case softfloat.FPMul:
			c.Stats.Cycles += costSoftFPMul
		case softfloat.FPDiv:
			c.Stats.Cycles += costSoftFPDiv
		case softfloat.FPSqrt:
			c.Stats.Cycles += costSoftFPSqrt
		default:
			c.Stats.Cycles += costSoftFPAdd
		}
		return vx64.HelperContinue
	}
	h[hFCvtZS] = func(c *vx64.CPU) vx64.HelperAction {
		a := e.stateSlot(hvm.StateArg1)
		e.setRet(uint64(softfloat.F64ToI64(a, softfloat.SemARM)))
		return vx64.HelperContinue
	}
	h[hQemuFill] = e.qemuFill
	h[hFMinMax] = func(c *vx64.CPU) vx64.HelperAction {
		sel := e.stateSlot(hvm.StateArg0)
		a, b := e.stateSlot(hvm.StateArg1), e.stateSlot(hvm.StateArg2)
		if sel == 0 {
			e.setRet(softfloat.Min64(a, b, softfloat.SemARM))
		} else {
			e.setRet(softfloat.Max64(a, b, softfloat.SemARM))
		}
		return vx64.HelperContinue
	}
	e.cpu.Helpers = h
}

// Cycles returns the simulated host time consumed so far (deci-cycles).
func (e *Engine) Cycles() uint64 { return e.cpu.Stats.Cycles }

// LoadUser copies additional image data (e.g. a user program) into guest
// RAM without changing the PC.
func (e *Engine) LoadUser(data []byte, gpa uint64) error { return e.Mem.Load(data, gpa) }
