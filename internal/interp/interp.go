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

	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/metrics"
	"captive/internal/smp"
	"captive/internal/ssa"
	"captive/internal/trace"
)

// Machine is an interpreted guest machine for any ported architecture: one
// hart of a Cluster (a one-hart cluster for a standalone machine).
type Machine struct {
	// Guest is the hart's guest state and the guest rules every engine
	// applies (internal/smp): the register file, the system state, guest
	// RAM (Mem), the run state (Halted, ExitCode, Waiting) and the event
	// counters. The golden model emits the same trace vocabulary as the DBT
	// engines through it, stamped with the same engine-independent virtual
	// clock, so the comparable streams (trace.ComparableKinds) match
	// event-for-event.
	smp.Guest

	Module *gen.Module

	// Instrs counts retired guest instructions block-granularly: the whole
	// block is charged when it is entered, exactly like the engines'
	// instrumentation prologue. For programs without mid-block faults this
	// equals the per-instruction count.
	Instrs uint64

	cl      *Cluster // the owning cluster
	interp  *ssa.Interp
	fields  []uint64 // the current instruction's field values
	wrotePC bool
	curPC   uint64

	// The scanned block currently executing (block-granular accounting).
	block    []gen.Decoded
	blockIdx int
}

// New creates a machine for the guest architecture described by g with the
// given amount of guest RAM. module must be a module built by (or
// compatible with) g.Module — difftest builds modules per offline level and
// passes them in directly.
func New(g port.Port, module *gen.Module, ramBytes int) *Machine {
	return NewCluster(g, module, ramBytes, 1).Machines[0]
}

// Metrics returns the unified metrics snapshot of the reference engine. The
// interpreter has no JIT, no simulated host CPU and no cycle model, so only
// the architectural axis and the guest event counters are populated.
func (m *Machine) Metrics() metrics.Snapshot {
	return metrics.Snapshot{
		Engine:         "interp",
		GuestInstrs:    m.Instrs,
		VirtualTime:    m.cl.virtualTime(),
		GuestFaults:    m.Exceptions,
		IRQsDelivered:  m.IRQs,
		MMIOEmulations: m.DeviceAccesses,
	}
}

// state adapter: Machine implements ssa.State (ReadBank and WriteBank
// through its Regs). An instruction that stops — an exception, exception
// return, halt or parked wfi, each of which leaves the PC where the hart
// continues — or writes the PC ends its block.

// ReadPC implements ssa.State.
func (m *Machine) ReadPC() uint64 { return m.PC() }

// WritePC implements ssa.State.
func (m *Machine) WritePC(v uint64) {
	m.wrotePC = true
	m.SetPC(v)
}

// MemRead implements ssa.State.
func (m *Machine) MemRead(width uint8, va uint64) (uint64, bool) {
	a := m.Space.Data(va, width, false, m.curPC)
	switch {
	case a.Abort:
		m.Raise(a.Exc)
		return 0, false
	case a.Device:
		return m.Device(a.Walk.PA, width, false, 0, m.curPC), true
	}
	v, _ := m.Mem.Read(a.Walk.PA, width)
	return v, true
}

// MemWrite implements ssa.State.
func (m *Machine) MemWrite(width uint8, va uint64, v uint64) bool {
	a := m.Space.Data(va, width, true, m.curPC)
	switch {
	case a.Abort:
		m.Raise(a.Exc)
		return false
	case a.Device:
		m.Device(a.Walk.PA, width, true, v, m.curPC)
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
		v, ok := m.Sys.ReadReg(args[0], &m.Hooks)
		if !ok {
			m.Raise(port.Exception{Kind: port.ExcUndefined, PC: m.curPC})
			return 0, false
		}
		return v, true
	case ssa.IntrSysWrite:
		if !m.Sys.WriteReg(args[0], args[1], &m.Hooks) {
			m.Raise(port.Exception{Kind: port.ExcUndefined, PC: m.curPC})
			return 0, false
		}
		return 0, true
	case ssa.IntrSVC:
		m.Raise(port.Exception{Kind: port.ExcSyscall, Imm: uint32(args[0]), PC: m.curPC + 4})
		return 0, false
	case ssa.IntrBRK:
		m.Raise(port.Exception{Kind: port.ExcBreakpoint, Imm: uint32(args[0]), PC: m.curPC})
		return 0, false
	case ssa.IntrERet:
		m.ERet()
		return 0, false
	case ssa.IntrTLBIAll:
		// The interpreter walks tables on every access: nothing cached.
		return 0, true
	case ssa.IntrHlt:
		m.Halt(args[0])
		return 0, false
	case ssa.IntrWFI:
		switch m.WFI(m.curPC, false, len(m.cl.Machines) == 1) {
		case smp.WFIPark, smp.WFIHalt:
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
	a := m.Space.Fetch(pc)
	if a.Abort {
		m.Raise(a.Exc)
		return false
	}
	var undef bool
	m.block, undef = port.ScanBlock(m.Module, m.Mem.Fetch, a.Walk.PA, m.block[:0])
	m.blockIdx = 0
	if undef || len(m.block) == 0 {
		m.Raise(port.Exception{Kind: port.ExcUndefined, PC: pc})
		return false
	}
	// Block entry, stamped with the pre-retire virtual time — the DBT
	// engines' PROFCNT marker sits before their retire-count update, so
	// both streams carry identical (time, pc) pairs.
	m.Record(trace.BlockEnter, 0, pc, 0)
	m.Instrs += uint64(len(m.block))
	return true
}

// step executes one guest instruction of a live hart, entering a new block
// first when needed.
func (m *Machine) step() error {
	if m.blockIdx >= len(m.block) {
		// Interrupt delivery point: every block entry is a boundary, the
		// same one the engines' dispatcher and block-entry IRQCHK observe.
		if (m.DeliverIRQ() && m.Halted) || !m.scanBlock() {
			return nil
		}
	}
	d := m.block[m.blockIdx]
	pc := m.PC()
	m.curPC = pc
	m.wrotePC = false
	m.fields = d.AppendFields(m.fields[:0])
	ok, err := m.interp.Run(d.Info.Action, m.fields, m)
	if err != nil {
		return fmt.Errorf("interp: %s at pc %#x (%s): %w", m.Module.Arch, pc, d.Info.Name, err)
	}
	if ok && !m.wrotePC {
		m.SetPC(pc + port.InstrBytes)
		m.blockIdx++
	} else {
		m.block = m.block[:0]
		m.blockIdx = 0
	}
	return nil
}

// Run executes a standalone machine until halt or the step limit; it
// returns the number of instructions retired during this call. The limit
// counts steps rather than retired instructions so that exception loops
// through undecodable memory still terminate; running out of it returns an
// error wrapping smp.ErrBudget.
func (m *Machine) Run(limit uint64) (uint64, error) {
	start := m.Instrs
	m.cl.steps, m.cl.stepLimit = 0, limit
	err := m.run(^uint64(0))
	return m.Instrs - start, err
}

// run is the step loop of every run mode: it steps until the hart halts or
// parks in wfi, or reaches a block boundary with end instructions retired.
// Slices of the deterministic scheduler end exactly at block boundaries: a
// block entered while the retired count is still below the slice end runs
// to completion, so the overshoot is identical to the DBT engines' (which
// test the slice end only in their dispatcher). Every step is charged to the
// cluster's step budget.
func (m *Machine) run(end uint64) error {
	cl := m.cl
	for !m.Halted && !m.Waiting {
		if m.blockIdx >= len(m.block) && m.Instrs >= end {
			return nil
		}
		if cl.steps >= cl.stepLimit {
			return fmt.Errorf("interp: step limit %d exceeded at hart %d pc %#x: %w", cl.stepLimit, m.Hooks.HartID, m.PC(), smp.ErrBudget)
		}
		cl.steps++
		if err := m.step(); err != nil {
			return err
		}
	}
	return nil
}
