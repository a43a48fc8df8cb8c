package ga64

// The GA64 guest port: the adapter through which the execution engines in
// internal/core drive this model. Everything architecture-specific the
// engines used to reach into this package for — the generated module,
// register-bank names, exception classification (AbortEC/AbortISS/EC*),
// system-register dispatch, the guest page-table walker and the MMIO-window
// predicate — is routed through here.

import (
	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/ssa"
)

// Port implements port.Port for the GA64 guest architecture.
type Port struct{}

// Arch implements port.Port.
func (Port) Arch() string { return "ga64" }

// Module implements port.Port.
func (Port) Module(level ssa.OptLevel) (*gen.Module, error) { return NewModule(level) }

// Banks implements port.Port (GA64 has no zero register; X31 is the SP).
func (Port) Banks() port.Banks {
	return port.Banks{GPR: "X", Flags: "NZCV", FP: "VL", ZeroGPR: -1}
}

// IsDevice implements port.Port.
func (Port) IsDevice(pa uint64) bool { return IsDevice(pa) }

// DeviceBase implements port.Port.
func (Port) DeviceBase() uint64 { return DeviceBase }

// NewSys implements port.Port.
func (Port) NewSys() port.Sys {
	s := &sysPort{}
	s.sys.Reset()
	return s
}

// sysPort adapts Sys (the full-system GA64 exception/sysreg model) to the
// engine-facing port.Sys interface.
type sysPort struct {
	sys Sys
}

// Raw exposes the underlying system state (tests, examples).
func (p *sysPort) Raw() *Sys { return &p.sys }

// EL implements port.Sys.
func (p *sysPort) EL() uint8 { return p.sys.EL }

// MMUOn implements port.Sys.
func (p *sysPort) MMUOn() bool { return p.sys.MMUOn() }

// Walk implements port.Sys.
func (p *sysPort) Walk(read port.PhysRead64, va uint64) port.WalkResult {
	return Walk(read, &p.sys, va)
}

// Take implements port.Sys: classify the engine-level exception into the
// GA64 EC/ISS syndrome encoding and perform the architectural entry. GA64 is
// a full-system model, so no exception halts the machine. The hooks are
// unused: GA64's translation regime (TTBR0/TTBR1/SCTLR) does not depend on
// the exception level, so entries never change it.
func (p *sysPort) Take(ex port.Exception, nzcv uint8, _ *port.Hooks) port.Entry {
	var ec uint8
	var iss uint32
	var far uint64
	switch ex.Kind {
	case port.ExcInsnAbort:
		ec, iss, far = AbortEC(true, p.sys.EL), AbortISS(ex.Translation, false), ex.Addr
	case port.ExcDataAbort:
		ec, iss, far = AbortEC(false, p.sys.EL), AbortISS(ex.Translation, ex.Write), ex.Addr
	case port.ExcSyscall:
		ec, iss = ECSVC, ex.Imm
	case port.ExcBreakpoint:
		ec, iss = ECBRK, ex.Imm
	default:
		ec = ECUndefined
	}
	return port.Entry{PC: p.sys.TakeException(ec, iss, far, nzcv, ex.PC, false)}
}

// ERet implements port.Sys (hooks unused, as in Take).
func (p *sysPort) ERet(_ *port.Hooks) (uint64, uint8) { return p.sys.ERet() }

// raisedSources returns the IRQEN-gated pending-source mask: the timer line
// at the given level and this hart's software-interrupt (IPI) line from the
// hooks, each ANDed with its forward-enable bit.
func (p *sysPort) raisedSources(line bool, h *port.Hooks) uint64 {
	var src uint64
	if line {
		src |= IRQENTimer
	}
	if h != nil && h.SoftLine != nil && h.SoftLine() {
		src |= IRQENSoft
	}
	return src & p.sys.IRQEN
}

// PendingIRQ implements port.Sys: a source line is deliverable when it is
// forwarded by the IRQEN sliver and PSTATE.I is clear.
func (p *sysPort) PendingIRQ(line bool, h *port.Hooks) bool {
	return p.raisedSources(line, h) != 0 && !p.sys.IMask
}

// WFIWake implements port.Sys: wfi wakes on a pending-and-enabled source
// regardless of PSTATE.I (the architectural wfi wake rule).
func (p *sysPort) WFIWake(line bool, h *port.Hooks) bool {
	return p.raisedSources(line, h) != 0
}

// TakeIRQ implements port.Sys: asynchronous entry through the IRQ vectors;
// no syndrome is recorded. GA64 has a single source, so the line level
// carries no extra information here.
func (p *sysPort) TakeIRQ(pc uint64, _ bool, nzcv uint8, _ *port.Hooks) port.Entry {
	return port.Entry{PC: p.sys.TakeException(0, 0, 0, nzcv, pc, true)}
}

// ReadReg implements port.Sys.
func (p *sysPort) ReadReg(idx uint64, h *port.Hooks) (uint64, bool) {
	return p.sys.ReadReg(idx, p.sys.EL, h)
}

// WriteReg implements port.Sys.
func (p *sysPort) WriteReg(idx uint64, v uint64, h *port.Hooks) bool {
	return p.sys.WriteReg(idx, v, p.sys.EL, h)
}

// RawSys unwraps the concrete *Sys from an engine's port.Sys, for tests and
// tools that inspect GA64 system registers directly. It returns nil when s
// is not a GA64 system.
func RawSys(s port.Sys) *Sys {
	if p, ok := s.(*sysPort); ok {
		return p.Raw()
	}
	return nil
}
