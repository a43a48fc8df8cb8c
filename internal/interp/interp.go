// Package interp is the unified reference execution engine: a full-system
// guest interpreter driven by a generated module and the guest-port
// abstraction layer — the same `port.Port`/`port.Sys` seam the DBT engines
// in internal/core consume. It is the golden model every engine is
// differentially tested against, for every guest: it knows no concrete
// architecture (the port invariant extends here — this package must never
// import captive/internal/guest/<concrete>).
//
// The machine retires instructions *block-granularly*, with the exact block
// formation rules of the DBT engines (port.ScanBlock: block-ending
// behaviours, guest-physical page-boundary cuts, the port.MaxBlockInstrs
// cap). The engines charge a whole translated block at entry, so a golden
// model that counted instruction-by-instruction would diverge the moment a
// program faults mid-block; scanning blocks the same way makes instruction
// counts bit-identical across engines even through page faults,
// self-modifying code and privilege transitions.
package interp

import (
	"fmt"

	"captive/internal/device"
	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/metrics"
	"captive/internal/smp"
	"captive/internal/ssa"
	"captive/internal/trace"
)

// Machine is an interpreted guest machine for any ported architecture.
type Machine struct {
	Module *gen.Module
	Mem    port.RAM // guest physical memory

	// Regs views the guest register file, laid out per the module layout.
	port.Regs

	// Halted and ExitCode are set by the guest halt instruction or by a
	// port that terminates the machine on an unvectored exception.
	Halted   bool
	ExitCode uint64

	// Instrs counts retired guest instructions block-granularly: the whole
	// block is charged when it is entered, exactly like the engines'
	// instrumentation prologue. For programs without mid-block faults this
	// equals the per-instruction count.
	Instrs uint64
	// Exceptions counts taken guest exceptions (including halting ones).
	Exceptions uint64
	// IRQs counts delivered guest interrupts.
	IRQs uint64

	// idleOff is the virtual time skipped while idling in wfi (part of the
	// virtual clock, alongside Instrs — the same split the DBT engines keep).
	idleOff uint64

	// rec is the attached trace recorder (nil: tracing off; every Emit is
	// nil-safe). The golden model emits the same event vocabulary as the DBT
	// engines, stamped with the same engine-independent virtual clock, so
	// the comparable streams (trace.ComparableKinds) match event-for-event.
	rec *trace.Recorder

	// Waiting is set when the hart is parked in wfi under the cluster's
	// deterministic scheduler (single machines idle-skip or halt instead).
	// The PC stays on the wfi instruction, which re-executes on wake.
	Waiting bool

	// lines wires the hart to the device bus every access goes through:
	// the machine's own for a standalone machine, the cluster's for a
	// member. cl is the owning cluster (nil for a standalone machine,
	// including the hart of a one-hart cluster).
	lines smp.Lines
	cl    *Cluster

	guest   port.Port
	sys     port.Sys
	space   port.Space
	interp  *ssa.Interp
	fields  []uint64 // the current instruction's field values
	hooks   port.Hooks
	wrotePC bool
	curPC   uint64
	pending struct {
		redirect bool
		pc       uint64
	}

	// The scanned block currently executing (block-granular accounting).
	block    []gen.Decoded
	blockIdx int
}

// New creates a machine for the guest architecture described by g with the
// given amount of guest RAM. module must be a module built by (or
// compatible with) g.Module — difftest builds modules per offline level and
// passes them in directly.
func New(g port.Port, module *gen.Module, ramBytes int) *Machine {
	return newHart(g, module, port.NewRAM(uint64(ramBytes)), new(device.Bus), 0)
}

// newHart creates hart hartID over the given guest RAM and device bus.
// Hart 0's virtual time drives the bus's clock.
func newHart(g port.Port, module *gen.Module, mem port.RAM, bus *device.Bus, hartID int) *Machine {
	m := &Machine{
		Module: module,
		Mem:    mem,
		Regs:   port.NewRegs(g, module, make([]byte, module.Layout.Size)),
		guest:  g,
		sys:    g.NewSys(),
		interp: ssa.NewInterp(),
	}
	m.space = port.NewSpace(g, m.sys, mem)
	m.lines = smp.Lines{Hart: hartID, Bus: bus, Sys: m.sys, Hooks: &m.hooks}
	// The virtual counter advances with retired instructions (charged
	// block-granularly at entry, exactly like the engines' instrumentation
	// prologue — a mid-block read must see the same value everywhere) plus
	// the time skipped while idle in wfi.
	if hartID == 0 {
		bus.Cycles = m.virtualTime
	}
	// Nothing is cached across accesses (the walker runs fresh every time;
	// a scanned block never outlives a regime-changing instruction, which
	// ends its block per the shared rules), so translation changes need no
	// action here.
	m.hooks = port.Hooks{
		HartID:             hartID,
		CycleCount:         m.virtualTime,
		TranslationChanged: func() {},
		TimerLine:          m.lines.TimerLine,
		SoftLine:           m.lines.SoftLine,
	}
	return m
}

// virtualTime is the guest-visible virtual counter (see core.VirtualTime:
// the clock is engine-independent by construction). Cluster members share
// one clock: total retired instructions across all harts plus skipped idle
// time — the same sum the SMP engines keep.
func (m *Machine) virtualTime() uint64 {
	if m.cl != nil {
		return m.cl.virtualTime()
	}
	return m.Instrs + m.idleOff
}

// SetTrace attaches a trace recorder (nil detaches). Tracing is pure
// observation: it never changes what the machine computes or counts.
func (m *Machine) SetTrace(r *trace.Recorder) { m.rec = r }

// Metrics returns the unified metrics snapshot of the reference engine. The
// interpreter has no JIT, no simulated host CPU and no cycle model, so only
// the architectural axis and the guest event counters are populated.
func (m *Machine) Metrics() metrics.Snapshot {
	return metrics.Snapshot{
		Engine:        "interp",
		GuestInstrs:   m.Instrs,
		VirtualTime:   m.virtualTime(),
		GuestFaults:   m.Exceptions,
		IRQsDelivered: m.IRQs,
	}
}

// NewAt builds the guest module at the given offline optimization level and
// creates a machine around it.
func NewAt(g port.Port, level ssa.OptLevel, ramBytes int) (*Machine, error) {
	module, err := g.Module(level)
	if err != nil {
		return nil, err
	}
	return New(g, module, ramBytes), nil
}

// Sys exposes the guest system state. Guest packages provide unwrappers for
// their concrete state (e.g. ga64.RawSys, rv64.RawSys).
func (m *Machine) Sys() port.Sys { return m.sys }

// LoadImage copies a program image into guest physical memory and points
// the PC at its entry.
func (m *Machine) LoadImage(data []byte, loadPA, entry uint64) error {
	if err := m.Mem.Load(data, loadPA); err != nil {
		return err
	}
	m.SetPC(entry)
	return nil
}

// Console returns the guest's UART output.
func (m *Machine) Console() string { return m.lines.Bus.Console() }

// raise injects a guest exception exactly as the engines do: vector to the
// guest handler, or halt when the port terminates the machine.
func (m *Machine) raise(ex port.Exception) {
	m.rec.Emit(trace.Exception, uint8(ex.Kind), m.virtualTime(), ex.PC, ex.Addr)
	m.Exceptions++
	entry := m.sys.Take(ex, m.NZCV(), &m.hooks)
	if entry.Halt {
		m.Halted = true
		m.ExitCode = entry.Code
		return
	}
	m.pending.redirect = true
	m.pending.pc = entry.PC
}

// state adapter: Machine implements ssa.State (ReadBank and WriteBank
// through its Regs).

// ReadPC implements ssa.State.
func (m *Machine) ReadPC() uint64 { return m.PC() }

// WritePC implements ssa.State.
func (m *Machine) WritePC(v uint64) {
	m.wrotePC = true
	m.SetPC(v)
}

// access classifies a data access by the current instruction through the
// shared rules, injecting the abort when it faults.
func (m *Machine) access(va uint64, width uint8, write bool) port.Access {
	a := m.space.Data(va, width, write, m.curPC)
	switch {
	case a.Abort:
		m.raise(a.Exc)
	case a.Device:
		m.rec.Emit(trace.MMIO, trace.MMIOArg(width, write), m.virtualTime(), m.curPC, a.Walk.PA)
	}
	return a
}

// MemRead implements ssa.State.
func (m *Machine) MemRead(width uint8, va uint64) (uint64, bool) {
	a := m.access(va, width, false)
	switch {
	case a.Abort:
		return 0, false
	case a.Device:
		return m.lines.Bus.Read(a.Walk.PA-m.guest.DeviceBase(), width), true
	}
	v, _ := m.Mem.Read(a.Walk.PA, width)
	return v, true
}

// MemWrite implements ssa.State.
func (m *Machine) MemWrite(width uint8, va uint64, v uint64) bool {
	a := m.access(va, width, true)
	switch {
	case a.Abort:
		return false
	case a.Device:
		m.lines.Bus.Write(a.Walk.PA-m.guest.DeviceBase(), width, v)
	default:
		m.Mem.Write(a.Walk.PA, width, v)
	}
	return true
}

// Intrinsic implements ssa.State.
func (m *Machine) Intrinsic(id ssa.IntrID, args []uint64) (uint64, bool) {
	if v, ok := ssa.PureIntrinsic(id, args); ok {
		return v, true
	}
	switch id {
	case ssa.IntrSysRead:
		v, ok := m.sys.ReadReg(args[0], &m.hooks)
		if !ok {
			m.raise(port.Exception{Kind: port.ExcUndefined, PC: m.curPC})
			return 0, false
		}
		return v, true
	case ssa.IntrSysWrite:
		if !m.sys.WriteReg(args[0], args[1], &m.hooks) {
			m.raise(port.Exception{Kind: port.ExcUndefined, PC: m.curPC})
			return 0, false
		}
		return 0, true
	case ssa.IntrSVC:
		m.raise(port.Exception{Kind: port.ExcSyscall, Imm: uint32(args[0]), PC: m.curPC + 4})
		return 0, false
	case ssa.IntrBRK:
		m.raise(port.Exception{Kind: port.ExcBreakpoint, Imm: uint32(args[0]), PC: m.curPC})
		return 0, false
	case ssa.IntrERet:
		newPC, nzcv := m.sys.ERet(&m.hooks)
		m.SetNZCV(nzcv)
		m.pending.redirect = true
		m.pending.pc = newPC
		return 0, false
	case ssa.IntrTLBIAll:
		// The interpreter walks tables on every access: nothing cached.
		return 0, true
	case ssa.IntrHlt:
		m.Halted = true
		m.ExitCode = args[0]
		return 0, false
	case ssa.IntrWFI:
		switch act, skip := m.lines.WFI(false, m.cl == nil); act {
		case smp.WFIPark:
			m.Waiting = true
			m.pending.redirect = true
			m.pending.pc = m.curPC
			return 0, false
		case smp.WFISkip:
			m.rec.Emit(trace.WFIIdle, 0, m.virtualTime(), m.curPC, skip)
			m.idleOff += skip
		case smp.WFIHalt:
			m.Halted = true
			m.ExitCode = 0
			return 0, false
		}
	}
	return 0, true
}

// scanBlock forms the basic block starting at the current PC with the
// shared engine rules (port.ScanBlock after translating the fetch) and
// charges its instruction count — the engines' instrumentation prologue. It
// returns false when the fetch itself trapped (count unchanged, like the
// engines' pre-translation abort or hUndef path).
func (m *Machine) scanBlock() bool {
	pc := m.PC()
	a := m.space.Fetch(pc)
	if a.Abort {
		m.raise(a.Exc)
		return false
	}
	var undef bool
	m.block, undef = port.ScanBlock(m.Module, m.Mem.Fetch, a.Walk.PA, m.block[:0])
	m.blockIdx = 0
	if undef || len(m.block) == 0 {
		m.raise(port.Exception{Kind: port.ExcUndefined, PC: pc})
		return false
	}
	// Block entry, stamped with the pre-retire virtual time — the DBT
	// engines' PROFCNT marker sits before their retire-count update, so
	// both streams carry identical (time, pc) pairs.
	m.rec.Emit(trace.BlockEnter, 0, m.virtualTime(), pc, 0)
	m.Instrs += uint64(len(m.block))
	return true
}

// Step executes one guest instruction (entering a new block first when
// needed). It returns false when the machine has halted.
func (m *Machine) Step() (bool, error) {
	if m.Halted {
		return false, nil
	}
	if m.blockIdx >= len(m.block) {
		// Interrupt delivery point: every block entry is a boundary, the
		// same one the engines' dispatcher and block-entry IRQCHK observe.
		if line := m.lines.TimerLine(); m.sys.PendingIRQ(line, &m.hooks) {
			m.rec.Emit(trace.IRQ, trace.LineArg(line), m.virtualTime(), m.PC(), 0)
			m.IRQs++
			entry := m.sys.TakeIRQ(m.PC(), line, m.NZCV(), &m.hooks)
			if entry.Halt {
				m.Halted = true
				m.ExitCode = entry.Code
				return false, nil
			}
			m.SetPC(entry.PC)
		}
		if !m.scanBlock() {
			if m.pending.redirect {
				m.SetPC(m.pending.pc)
				m.pending.redirect = false
			}
			return !m.Halted, nil
		}
	}
	d := m.block[m.blockIdx]
	pc := m.PC()
	m.curPC = pc
	m.wrotePC = false
	m.pending.redirect = false
	m.fields = d.AppendFields(m.fields[:0])
	ok, err := m.interp.Run(d.Info.Action, m.fields, m)
	if err != nil {
		return false, fmt.Errorf("interp: %s at pc %#x (%s): %w", m.Module.Arch, pc, d.Info.Name, err)
	}
	if ok && !m.wrotePC {
		m.SetPC(pc + port.InstrBytes)
	}
	switch {
	case m.pending.redirect:
		m.SetPC(m.pending.pc)
		m.pending.redirect = false
		m.block = m.block[:0]
		m.blockIdx = 0
	case m.wrotePC:
		m.block = m.block[:0]
		m.blockIdx = 0
	default:
		m.blockIdx++
	}
	return !m.Halted, nil
}

// Run executes until halt or the step limit; it returns the number of
// instructions retired during this call. The limit counts steps rather than
// retired instructions so that exception loops through undecodable memory
// still terminate; running out of it returns an error wrapping
// smp.ErrBudget.
func (m *Machine) Run(limit uint64) (uint64, error) {
	start := m.Instrs
	for steps := uint64(0); steps < limit; steps++ {
		alive, err := m.Step()
		if err != nil {
			return m.Instrs - start, err
		}
		if !alive {
			return m.Instrs - start, nil
		}
	}
	return m.Instrs - start, fmt.Errorf("interp: step limit %d exceeded at pc %#x: %w", limit, m.PC(), smp.ErrBudget)
}

// RunSlice executes until at least quantum further instructions have
// retired, or the hart halts or parks in wfi. Slices end exactly at block
// boundaries: a block entered while the retired count is still below the
// slice end runs to completion, so the overshoot is identical to the DBT
// engines' (which test the slice end only in their dispatcher). Steps are
// charged against the owning cluster's step budget so exception loops
// through undecodable memory still terminate.
func (m *Machine) RunSlice(quantum uint64) error {
	end := m.Instrs + quantum
	for !m.Halted && !m.Waiting {
		if m.blockIdx >= len(m.block) && m.Instrs >= end {
			return nil
		}
		if m.cl != nil {
			if m.cl.steps >= m.cl.stepLimit {
				return fmt.Errorf("interp: cluster step limit %d exceeded at hart %d pc %#x: %w", m.cl.stepLimit, m.lines.Hart, m.PC(), smp.ErrBudget)
			}
			m.cl.steps++
		}
		if _, err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}
