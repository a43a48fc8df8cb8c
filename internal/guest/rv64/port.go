package rv64

// The RV64 guest port: the retargetability demonstration of §3.3/Table 5
// running through the *same* online DBT pipeline as GA64 — and, since the
// supervisor-mode upgrade, a full-system guest: M/S/U privilege modes, the
// machine/supervisor CSR file, vectored trap entry (with medeleg
// delegation), mret/sret and an sv39 page-table walker all slot in behind
// this adapter without any engine changes. A trap with no vector installed
// still halts the machine with the original user-level exit codes, so
// flat-memory programs keep their PR 2 contract: ecall exits cleanly,
// ebreak exits with 1, and wild accesses stop with 0xDEAD000x.

import (
	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/ssa"
)

// Exit codes reported when a guest exception halts a machine that installed
// no trap vector (0xDEAD in the high bits to stay clearly apart from ecall's
// 0 and ebreak's 1).
const (
	ExitInsnAbort  = 0xDEAD0000 + uint64(port.ExcInsnAbort)
	ExitDataAbort  = 0xDEAD0000 + uint64(port.ExcDataAbort)
	ExitUndefined  = 0xDEAD0000 + uint64(port.ExcUndefined)
	ExitSyscall    = 0xDEAD0000 + uint64(port.ExcSyscall)
	ExitBreakpoint = 0xDEAD0000 + uint64(port.ExcBreakpoint)
)

// Port implements port.Port for the full-system RV64 guest.
type Port struct{}

// Arch implements port.Port.
func (Port) Arch() string { return "rv64" }

// Module implements port.Port.
func (Port) Module(level ssa.OptLevel) (*gen.Module, error) { return NewModule(level) }

// Banks implements port.Port. RV64 has no FP bank; x0 is hardwired zero.
func (Port) Banks() port.Banks {
	return port.Banks{GPR: "X", Flags: "NZCV", ZeroGPR: 0}
}

// The MMIO window: one megabyte of guest physical address space holding the
// UART and timer emulations. The same physical placement as the GA64 window
// (the machines share the device.Bus layout), but stated locally — guest
// models never import each other.
const (
	DeviceBase = 0x10000000
	DeviceSize = 0x00100000
)

// IsDevice implements port.Port.
func (Port) IsDevice(pa uint64) bool {
	return pa >= DeviceBase && pa < DeviceBase+DeviceSize
}

// DeviceBase implements port.Port.
func (Port) DeviceBase() uint64 { return DeviceBase }

// NewSys implements port.Port.
func (Port) NewSys() port.Sys {
	s := &sysPort{}
	s.sys.Reset()
	return s
}

// sysPort adapts Sys (the M/S/U CSR, trap and sv39 model) to the
// engine-facing port.Sys interface.
type sysPort struct {
	sys Sys
}

// Raw exposes the underlying system state (tests, examples).
func (p *sysPort) Raw() *Sys { return &p.sys }

// EL implements port.Sys: RISC-V privilege modes map directly onto exception
// levels (U=0 runs in the host's user ring; S=1 and M=3 are privileged).
func (p *sysPort) EL() uint8 { return p.sys.Mode }

// MMUOn implements port.Sys.
func (p *sysPort) MMUOn() bool { return p.sys.Translating() }

// Walk implements port.Sys.
func (p *sysPort) Walk(read port.PhysRead64, va uint64) port.WalkResult {
	return p.sys.Walk(read, va)
}

// Take implements port.Sys. RV64 banks no flags, so the nzcv nibble is
// ignored; mode transitions with sv39 active fire TranslationChanged
// through the hooks (the regime depends on the privilege level).
func (p *sysPort) Take(ex port.Exception, _ uint8, h *port.Hooks) port.Entry {
	return p.sys.Take(ex, h)
}

// ERet implements port.Sys (the mret/sret return; flags are not banked).
func (p *sysPort) ERet(h *port.Hooks) (uint64, uint8) { return p.sys.ERet(h), 0 }

// PendingIRQ implements port.Sys: full privileged gating (mip & mie, the
// mideleg target split, mstatus.MIE/SIE in the target's own mode). The
// hart's IPI mailbox line from the hooks drives MSIP.
func (p *sysPort) PendingIRQ(line bool, h *port.Hooks) bool {
	_, ok := p.sys.PendingIRQCode(line, softLine(h))
	return ok
}

// WFIWake implements port.Sys: pending-and-enabled ignoring global masks.
func (p *sysPort) WFIWake(line bool, h *port.Hooks) bool {
	return p.sys.WFIWake(line, softLine(h))
}

// TakeIRQ implements port.Sys (flags are not banked, so nzcv is ignored).
func (p *sysPort) TakeIRQ(pc uint64, line bool, _ uint8, h *port.Hooks) port.Entry {
	return p.sys.TakeIRQ(pc, line, h)
}

// ReadReg implements port.Sys (the Zicsr read path).
func (p *sysPort) ReadReg(csr uint64, h *port.Hooks) (uint64, bool) {
	return p.sys.ReadReg(csr, h)
}

// WriteReg implements port.Sys (the Zicsr write path).
func (p *sysPort) WriteReg(csr, v uint64, h *port.Hooks) bool {
	return p.sys.WriteReg(csr, v, h)
}

// RawSys unwraps the concrete *Sys from an engine's port.Sys, for tests and
// tools that inspect RV64 CSRs directly. It returns nil when s is not an
// RV64 system.
func RawSys(s port.Sys) *Sys {
	if p, ok := s.(*sysPort); ok {
		return p.Raw()
	}
	return nil
}
