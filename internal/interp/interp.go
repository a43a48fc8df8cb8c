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
	"encoding/binary"
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

	// RegFile is the guest register file, laid out per the module layout.
	RegFile []byte

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

	// bus is the device bus every access goes through: the machine's own
	// for a standalone machine, the cluster's for a member. hartID is this
	// machine's index in the SMP topology, and cl the owning cluster (nil
	// for a standalone machine, including the hart of a one-hart cluster).
	bus    *device.Bus
	hartID int
	cl     *Cluster

	guest   port.Port
	sys     port.Sys
	interp  *ssa.Interp
	fields  []uint64 // the current instruction's field values
	hooks   port.Hooks
	wrotePC bool
	curPC   uint64
	pending struct {
		redirect bool
		pc       uint64
	}

	gprBank   *ssa.Bank
	flagsBank *ssa.Bank
	fpBank    *ssa.Bank // nil for guests without an FP bank
	zeroGPR   int       // hardwired-zero GPR index, -1 when none
	devBase   uint64

	// The scanned block currently executing (block-granular accounting).
	block    []gen.Decoded
	blockIdx int
}

// New creates a machine for the guest architecture described by g with the
// given amount of guest RAM. module must be a module built by (or
// compatible with) g.Module — difftest builds modules per offline level and
// passes them in directly.
func New(g port.Port, module *gen.Module, ramBytes int) *Machine {
	return newHart(g, module, make(port.RAM, ramBytes), new(device.Bus), 0)
}

// newHart creates hart hartID over the given guest RAM and device bus.
// Hart 0's virtual time drives the bus's clock.
func newHart(g port.Port, module *gen.Module, mem port.RAM, bus *device.Bus, hartID int) *Machine {
	banks := g.Banks()
	m := &Machine{
		Module:  module,
		Mem:     mem,
		RegFile: make([]byte, module.Layout.Size),
		bus:     bus,
		hartID:  hartID,
		guest:   g,
		sys:     g.NewSys(),
		interp:  ssa.NewInterp(),
		zeroGPR: banks.ZeroGPR,
		devBase: g.DeviceBase(),
	}
	m.gprBank = module.Registry.Bank(banks.GPR)
	m.flagsBank = module.Registry.Bank(banks.Flags)
	if banks.FP != "" {
		m.fpBank = module.Registry.Bank(banks.FP)
	}
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
		TimerLine:          m.timerLine,
		SoftLine:           func() bool { return m.bus.SoftPending(m.hartID) },
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

// timerLine is the level of the timer interrupt line as this hart sees it:
// the timer is wired to hart 0 only, exactly like the engines.
func (m *Machine) timerLine() bool { return m.hartID == 0 && m.bus.IRQPending() }

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

// Reg returns GPR n.
func (m *Machine) Reg(n int) uint64 {
	return binary.LittleEndian.Uint64(m.RegFile[m.gprBank.Offset+n*m.gprBank.Stride:])
}

// SetReg sets GPR n. Writes to the guest's hardwired-zero register (RISC-V
// x0) are dropped: the generated model relies on that bank slot staying 0.
func (m *Machine) SetReg(n int, v uint64) {
	if n == m.zeroGPR {
		return
	}
	binary.LittleEndian.PutUint64(m.RegFile[m.gprBank.Offset+n*m.gprBank.Stride:], v)
}

// FReg returns the low half of FP/vector register n (0 for guests without
// an FP bank).
func (m *Machine) FReg(n int) uint64 {
	if m.fpBank == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(m.RegFile[m.fpBank.Offset+n*m.fpBank.Stride:])
}

// PC returns the guest program counter.
func (m *Machine) PC() uint64 {
	return binary.LittleEndian.Uint64(m.RegFile[m.Module.Layout.PCOffset:])
}

// SetPC sets the guest program counter.
func (m *Machine) SetPC(v uint64) {
	binary.LittleEndian.PutUint64(m.RegFile[m.Module.Layout.PCOffset:], v)
}

// NZCV returns the guest flags nibble.
func (m *Machine) NZCV() uint8 {
	return m.RegFile[m.flagsBank.Offset]
}

// SetNZCV sets the guest flags nibble.
func (m *Machine) SetNZCV(v uint8) {
	m.RegFile[m.flagsBank.Offset] = v & 0xF
}

// Console returns the guest's UART output.
func (m *Machine) Console() string { return m.bus.Console() }

// RegState returns a copy of the architectural register file below the PC
// slot — the engine-independent state differential tests compare.
func (m *Machine) RegState() []byte {
	out := make([]byte, m.Module.Layout.PCOffset)
	copy(out, m.RegFile)
	return out
}

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

// translate resolves a guest virtual data address, raising the appropriate
// abort on failure. The returned physical address is for the access *base*;
// accesses spanning a page boundary proceed physically contiguous from it,
// the engines' fast-path behaviour.
func (m *Machine) translate(va uint64, write bool) (uint64, bool) {
	w := m.sys.Walk(m.Mem.Read64, va)
	if !w.OK {
		m.raise(port.Exception{Kind: port.ExcDataAbort, Translation: true, Write: write, Addr: va, PC: m.curPC})
		return 0, false
	}
	if !w.CheckAccess(write, m.sys.EL()) {
		m.raise(port.Exception{Kind: port.ExcDataAbort, Write: write, Addr: va, PC: m.curPC})
		return 0, false
	}
	return w.PA, true
}

// state adapter: Machine implements ssa.State.

// ReadBank implements ssa.State.
func (m *Machine) ReadBank(b *ssa.Bank, idx uint64) uint64 {
	off := b.Offset + int(idx)*b.Stride
	switch b.Stride {
	case 1:
		return uint64(m.RegFile[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(m.RegFile[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.RegFile[off:]))
	default:
		return binary.LittleEndian.Uint64(m.RegFile[off:])
	}
}

// WriteBank implements ssa.State.
func (m *Machine) WriteBank(b *ssa.Bank, idx uint64, v uint64) {
	off := b.Offset + int(idx)*b.Stride
	switch b.Stride {
	case 1:
		m.RegFile[off] = uint8(v)
	case 2:
		binary.LittleEndian.PutUint16(m.RegFile[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.RegFile[off:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(m.RegFile[off:], v)
	}
}

// ReadPC implements ssa.State.
func (m *Machine) ReadPC() uint64 { return m.PC() }

// WritePC implements ssa.State.
func (m *Machine) WritePC(v uint64) {
	m.wrotePC = true
	m.SetPC(v)
}

// MemRead implements ssa.State.
func (m *Machine) MemRead(width uint8, va uint64) (uint64, bool) {
	pa, ok := m.translate(va, false)
	if !ok {
		return 0, false
	}
	if m.guest.IsDevice(pa) {
		m.rec.Emit(trace.MMIO, mmioArg(width, false), m.virtualTime(), m.curPC, pa)
		return m.bus.Read(pa-m.devBase, width), true
	}
	v, ok := m.Mem.Read(pa, width)
	if !ok {
		m.raise(port.Exception{Kind: port.ExcDataAbort, Translation: true, Addr: va, PC: m.curPC})
	}
	return v, ok
}

// MemWrite implements ssa.State.
func (m *Machine) MemWrite(width uint8, va uint64, v uint64) bool {
	pa, ok := m.translate(va, true)
	if !ok {
		return false
	}
	// A write crossing a page boundary also needs write permission on the
	// last byte's page, faulting at the end address (the data itself still
	// goes physically contiguous from the base, the engines' fast-path
	// behaviour; reads stay contiguous with no second check).
	if end := va + uint64(width) - 1; width > 1 && (va^end)>>12 != 0 {
		if _, ok := m.translate(end, true); !ok {
			return false
		}
	}
	if m.guest.IsDevice(pa) {
		m.rec.Emit(trace.MMIO, mmioArg(width, true), m.virtualTime(), m.curPC, pa)
		m.bus.Write(pa-m.devBase, width, v)
		return true
	}
	if !m.Mem.Write(pa, width, v) {
		m.raise(port.Exception{Kind: port.ExcDataAbort, Translation: true, Write: true, Addr: va, PC: m.curPC})
		return false
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
		line := m.timerLine()
		if m.sys.WFIWake(line, &m.hooks) {
			// A source is pending and enabled: wfi completes as a nop
			// (delivery, if the global mask allows, happens at the next
			// block boundary).
			return 0, true
		}
		if m.cl != nil {
			// Cluster hart: park with the PC on the wfi. The scheduler
			// re-runs the hart when a source goes pending-and-enabled (or
			// skips the shared clock to the timer deadline), and the wfi
			// re-executes and completes — the engines' det-mode behaviour.
			m.Waiting = true
			m.pending.redirect = true
			m.pending.pc = m.curPC
			return 0, false
		}
		if dl, armed := m.bus.TimerState(); armed && m.sys.WFIWake(true, &m.hooks) {
			if dl > m.virtualTime() {
				// Timer armed and its interrupt enabled: skip virtual
				// time forward to the deadline instead of spinning.
				skipped := dl - m.virtualTime()
				m.rec.Emit(trace.WFIIdle, 0, m.virtualTime(), m.curPC, skipped)
				m.idleOff += skipped
				return 0, true
			}
		}
		// No enabled source can ever wake the hart: halt cleanly.
		m.Halted = true
		m.ExitCode = 0
		return 0, false
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
	w := m.sys.Walk(m.Mem.Read64, pc)
	if !w.OK {
		m.raise(port.Exception{Kind: port.ExcInsnAbort, Translation: true, Addr: pc, PC: pc})
		return false
	}
	if (m.sys.EL() == 0 && !w.User) || !w.Exec {
		m.raise(port.Exception{Kind: port.ExcInsnAbort, Addr: pc, PC: pc})
		return false
	}
	var undef bool
	m.block, undef = port.ScanBlock(m.Module, m.Mem.Fetch, w.PA, m.block[:0])
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
		if line := m.timerLine(); m.sys.PendingIRQ(line, &m.hooks) {
			m.rec.Emit(trace.IRQ, boolArg(line), m.virtualTime(), m.PC(), 0)
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
				return fmt.Errorf("interp: cluster step limit %d exceeded at hart %d pc %#x: %w", m.cl.stepLimit, m.hartID, m.PC(), smp.ErrBudget)
			}
			m.cl.steps++
		}
		if _, err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// boolArg and mmioArg encode trace event arguments exactly like the DBT
// engines (core.boolArg/core.mmioArg), keeping the streams comparable.
func boolArg(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func mmioArg(width uint8, write bool) uint8 {
	if write {
		return width | 1<<7
	}
	return width
}
