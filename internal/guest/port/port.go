// Package port is the guest-port abstraction layer: the seam between the
// execution engines (internal/core, internal/interp) and a concrete guest
// architecture model. The paper's central claim is retargetability — new
// guests are generated from the ADL and run through the *same* DBT
// hypervisor (§2.2, §3.3) — so everything the online engines need from a
// guest beyond its generated gen.Module is captured here: the register-file
// bank names, exception classification and injection, system-register
// dispatch, the guest MMU walker and the device-address predicate. The
// engines consume only these interfaces; internal/guest/ga64 and
// internal/guest/rv64 provide the implementations.
package port

import (
	"captive/internal/gen"
	"captive/internal/ssa"
)

// PhysRead64 reads a 64-bit word of guest physical memory; ok is false for
// out-of-range addresses. Every engine passes RAM.Read64, so the walker
// never sees an engine.
type PhysRead64 func(pa uint64) (uint64, bool)

// WalkResult is the outcome of a guest page-table walk. Permissions may be
// folded against the *current* system state by the walker (e.g. an sv39
// walker clears Exec on user pages walked from supervisor mode); ports whose
// regime depends on the privilege level must fire Hooks.TranslationChanged
// from Take/ERet so engines never reuse a stale fold.
type WalkResult struct {
	PA    uint64 // translated physical address
	Read  bool   // page is readable (data loads)
	Write bool   // page is writable
	Exec  bool   // page is executable (instruction fetch)
	User  bool   // page is accessible from the unprivileged level
	OK    bool   // translation exists
	Block bool   // mapped by a large (block) entry
}

// CheckAccess evaluates data-access permissions for a successful walk (fetch
// permission is Exec, checked by Space.Fetch). write is the
// access kind; el the current exception level. Write protection applies
// at every level (the GA64 simplification documented in DESIGN.md — and what
// makes guest-kernel writes to write-protected translated code detectable);
// ports whose walkers grant full permissions (identity-mapped user-level
// guests) always pass.
func (w WalkResult) CheckAccess(write bool, el uint8) bool {
	if !w.OK {
		return false
	}
	if write && !w.Write {
		return false
	}
	if !write && !w.Read {
		return false
	}
	if el == 0 && !w.User {
		return false
	}
	return true
}

// Hooks are the runtime services guest system operations may need. The
// engine wires them after creating the port's Sys and passes them to every
// ReadReg/WriteReg call — ports must use the *Hooks they are handed at call
// time, never snapshot hooks inside NewSys.
type Hooks struct {
	// CycleCount returns the current virtual counter value.
	CycleCount func() uint64
	// TranslationChanged is invoked when system-register writes change the
	// translation regime (engines must drop cached translations).
	TranslationChanged func()
	// TimerLine returns the current level of the timer interrupt line
	// (device.Bus.IRQPending under the virtual clock). Nil for user-level
	// harnesses without a device bus; ports treat nil as line-low.
	TimerLine func() bool
	// SoftLine returns the current level of this hart's software-interrupt
	// (IPI) line (device.Bus.SoftPending for the hart). Nil for harnesses
	// without an IPI mailbox; ports treat nil as line-low.
	SoftLine func() bool
	// HartID is this vCPU's index in the SMP topology (GA64 MPIDR, RV64
	// mhartid). Zero for uniprocessor machines.
	HartID int
}

// ExcKind classifies an engine-raised guest exception. The engines only
// *classify*; how a class maps onto architectural state (syndrome registers,
// vector offsets) — or whether it terminates a user-level machine — is the
// port's business.
type ExcKind uint8

// Exception kinds.
const (
	// ExcInsnAbort is a failed instruction fetch translation/permission.
	ExcInsnAbort ExcKind = iota
	// ExcDataAbort is a failed data access translation/permission.
	ExcDataAbort
	// ExcUndefined is an undecodable instruction or a privilege violation
	// on a system-register access.
	ExcUndefined
	// ExcSyscall is a supervisor call (GA64 svc).
	ExcSyscall
	// ExcBreakpoint is a breakpoint trap (GA64 brk).
	ExcBreakpoint
)

// Exception describes one guest exception to be injected.
type Exception struct {
	Kind        ExcKind
	Translation bool   // aborts: translation fault (vs permission fault)
	Write       bool   // data aborts: the access was a write
	Addr        uint64 // aborts: faulting virtual address
	Imm         uint32 // syscall/breakpoint immediate
	PC          uint64 // preferred return address (faulting instruction for
	// aborts, next instruction for syscalls)
}

// Entry is the outcome of an exception injection: either a redirect to the
// guest's handler, or — for user-level ports with no exception model — a
// machine halt with an exit code.
type Entry struct {
	PC   uint64 // next guest PC (when !Halt)
	Halt bool   // the exception terminates the machine
	Code uint64 // exit code when Halt
}

// Sys is the per-machine guest system state: system registers, privilege
// level, the exception model and the MMU configuration. One Sys exists per
// engine instance and is never shared.
type Sys interface {
	// EL returns the current exception (privilege) level. Level 0 is the
	// unprivileged level; engines run it in the host's user ring.
	EL() uint8
	// MMUOn reports whether guest address translation is enabled. Engines
	// use it only for cost accounting; Walk must behave correctly either
	// way.
	MMUOn() bool
	// Walk translates a guest virtual address under the current system
	// state, reading guest page tables through read. With translation
	// disabled (or for flat-memory ports) it is the identity with full
	// permissions.
	Walk(read PhysRead64, va uint64) WalkResult
	// Take performs the architectural exception entry for ex and returns
	// where execution continues. nzcv is the current flags nibble (saved by
	// ports that bank it). Ports whose translation regime depends on the
	// privilege level (RISC-V: M-mode is bare, S/U translate through satp)
	// fire h.TranslationChanged when the entry changes the effective regime.
	Take(ex Exception, nzcv uint8, h *Hooks) Entry
	// ERet performs the architectural exception return, restoring the
	// privilege level, and returns the new PC and flags. The hooks contract
	// matches Take.
	ERet(h *Hooks) (newPC uint64, nzcv uint8)
	// ReadReg reads a system register (the sys_read intrinsic). ok is false
	// for privilege violations, which engines turn into ExcUndefined.
	ReadReg(idx uint64, h *Hooks) (v uint64, ok bool)
	// WriteReg writes a system register (the sys_write intrinsic). ok is
	// false for privilege violations or read-only registers.
	WriteReg(idx uint64, v uint64, h *Hooks) (ok bool)

	// PendingIRQ reports whether an interrupt would be accepted at the next
	// block boundary were the timer line at the given level. All
	// architectural gating is the port's business: source enables (GA64
	// IRQEN, RV64 mie), global masks (PSTATE.I, mstatus.MIE/SIE) and
	// delegation (mideleg). Engines evaluate the line from device.Bus
	// against the virtual clock and never interpret guest interrupt state.
	PendingIRQ(line bool, h *Hooks) bool
	// WFIWake reports whether a wfi would (re)start execution with the
	// timer line at the given level: an interrupt source is pending and
	// enabled, *ignoring* global masks (the architectural wfi wake rule on
	// both guests). Engines also call it with line=true to ask whether a
	// future timer expiry could ever wake the hart (the idle-skip
	// decision).
	WFIWake(line bool, h *Hooks) bool
	// TakeIRQ performs the architectural interrupt entry for the
	// highest-priority deliverable source: pc is the interrupted
	// block-boundary PC (the preferred return address), line the timer-line
	// level the engine just tested PendingIRQ with, nzcv the current flags
	// nibble.
	TakeIRQ(pc uint64, line bool, nzcv uint8, h *Hooks) Entry
}

// Banks names the register-file banks the engines address directly. GPR and
// Flags are required; FP is empty for guests without a floating-point bank.
type Banks struct {
	GPR   string // 64-bit general-purpose bank ("X")
	Flags string // byte-wide flags bank ("NZCV")
	FP    string // low-half FP/vector bank ("VL"), or "" if none
	// ZeroGPR is the index of a hardwired-zero GPR (RISC-V x0), or -1 when
	// the guest has none. The generated model never writes that bank slot —
	// it only relies on it staying 0 — so host-side register pokes
	// (debuggers, harnesses, the interpreter's SetReg) must drop writes to
	// it. Ports without a zero register MUST set -1 explicitly.
	ZeroGPR int
}

// Port is one guest architecture as seen by the execution engines. A Port is
// stateless and shareable; per-machine state lives in the Sys it creates.
type Port interface {
	// Arch returns the guest architecture name (matches the ADL arch
	// declaration).
	Arch() string
	// Module builds (or returns the cached) generated module at the given
	// offline optimization level.
	Module(level ssa.OptLevel) (*gen.Module, error)
	// NewSys creates the per-machine system state in its architectural
	// reset state.
	NewSys() Sys
	// Banks names the register-file banks.
	Banks() Banks
	// IsDevice reports whether a guest physical address falls in the
	// memory-mapped I/O window (trap-and-emulate in the engines). Ports
	// without devices return false.
	IsDevice(pa uint64) bool
	// DeviceBase returns the base guest physical address of the MMIO
	// window — the offset origin for device.Bus accesses. Only meaningful
	// for ports whose IsDevice can return true; device-less ports return 0.
	DeviceBase() uint64
}
