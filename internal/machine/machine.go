// Package machine is the engine-side seam of the hypervisor, the counterpart
// of the guest port layer (internal/guest/port). The engines see a guest only
// through its generated module and its port; every consumer — the public
// API, cmd/captive, the benchmarks, the examples and the differential
// harness — sees an engine only through this package: one Machine interface
// covering the reference interpreter, the Captive DBT and the QEMU-style
// baseline at any hart count, and one constructor, New, that turns an engine
// kind, guest port, offline level, sizes and hart count into a running
// machine.
//
// core.SMP and interp.Cluster implement Machine; a uniprocessor is the
// one-hart case and runs the uniprocessor paths (core.Engine.Run,
// interp.Machine.Run) unchanged.
package machine

import (
	"fmt"

	"captive/internal/core"
	"captive/internal/guest/port"
	"captive/internal/hvm"
	"captive/internal/interp"
	"captive/internal/metrics"
	"captive/internal/smp"
	"captive/internal/ssa"
	"captive/internal/trace"
)

// Machine is a guest machine of N harts on one engine.
//
// Budgets count interpreter steps per hart: the interpreter executes at most
// that many steps (a cluster shares N×budget), and the DBT engines bound each
// hart's simulated time at smp.DeciCyclesPerStep deci-cycles per step. Run
// returns ErrBudget (possibly wrapped; match with errors.Is) when the budget
// runs out first.
type Machine interface {
	// LoadImage copies an image into guest physical memory and points every
	// hart's PC at entry.
	LoadImage(data []byte, pa, entry uint64) error
	// LoadData copies bytes into guest physical memory.
	LoadData(data []byte, pa uint64) error
	// Run executes until every hart halts or the budget expires.
	Run(budget uint64) error
	// Exit reports whether every hart has halted, and hart 0's exit code.
	Exit() (halted bool, code uint64)
	// ReadRAM copies guest physical memory starting at pa into dst.
	ReadRAM(pa uint64, dst []byte) error
	// Console returns everything the guest wrote to its UART.
	Console() string
	// Metrics returns the machine's metrics summed over its harts.
	Metrics() metrics.Snapshot

	// N returns the hart count; the methods below view hart i.
	N() int
	Reg(i, n int) uint64
	SetReg(i, n int, v uint64)
	FReg(i, n int) uint64
	PC(i int) uint64
	// RegState is the architectural register file below the PC slot, the
	// engine-independent state differential tests compare.
	RegState(i int) []byte
	Sys(i int) port.Sys
	HartExit(i int) (halted bool, code uint64)
	GuestInstrs(i int) uint64
	SetTrace(i int, r *trace.Recorder)
}

// ErrBudget is the budget-expiry sentinel of every engine.
var ErrBudget = smp.ErrBudget

// Kind names an execution engine.
type Kind int

// Engine kinds.
const (
	// Captive is the paper's system: DBT inside a bare-metal host VM.
	Captive Kind = iota
	// QEMU is the baseline: softmmu, helper-call FP, VA-indexed cache.
	QEMU
	// Interp is the reference interpreter (the golden model).
	Interp
)

var kindNames = [...]string{Captive: "captive", QEMU: "qemu", Interp: "interp"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind maps an engine name (captive, qemu, interp) to its Kind.
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q (want captive, qemu or interp)", name)
}

// Spec describes a machine to build.
type Spec struct {
	Kind  Kind
	Guest port.Port
	// Level is the offline optimization level of the guest module (0: O4).
	Level ssa.OptLevel

	// Guest RAM, and the DBT engines' code cache and page-table pool.
	RAMBytes, CodeCacheBytes, PTPoolBytes int

	// The paper's two ablations (DBT engines only): helper-call floating
	// point on Captive (§3.6.2) and block chaining off (Fig. 21).
	SoftFP, ChainingOff bool

	// Harts is the hart count (0: 1). With more than one, Quantum selects
	// the deterministic scheduler's retired-instruction quantum; 0 runs the
	// harts truly parallel (Captive only).
	Harts   int
	Quantum uint64
}

// New builds the machine a Spec describes. It is the only place that turns
// an engine choice into hvm/core/interp construction calls.
func New(s Spec) (Machine, error) {
	level := s.Level
	if level == 0 {
		level = ssa.O4
	}
	module, err := s.Guest.Module(level)
	if err != nil {
		return nil, err
	}
	harts := max(s.Harts, 1)
	if s.Kind == Interp {
		cl := interp.NewCluster(s.Guest, module, s.RAMBytes, harts)
		cl.Quantum = s.Quantum
		return cl, nil
	}
	vm, err := hvm.New(hvm.Config{
		GuestRAMBytes:  s.RAMBytes,
		CodeCacheBytes: s.CodeCacheBytes,
		PTPoolBytes:    s.PTPoolBytes,
		VCPUs:          harts,
	})
	if err != nil {
		return nil, err
	}
	var m *core.SMP
	switch s.Kind {
	case Captive:
		m, err = core.NewSMP(vm, s.Guest, module)
	case QEMU:
		m, err = core.NewSMPQEMU(vm, s.Guest, module)
	default:
		err = fmt.Errorf("machine: unknown engine kind %d", s.Kind)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < m.N(); i++ {
		e := m.VCPU(i)
		e.SoftFP = e.SoftFP || s.SoftFP
		e.ChainingOff = e.ChainingOff || s.ChainingOff
	}
	m.Quantum = s.Quantum
	return m, nil
}
