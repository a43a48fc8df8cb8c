// Package captive is the public API of Captive-Go, a retargetable
// system-level dynamic binary translation (DBT) hypervisor reproducing
// Spink, Wagstaff & Franke, "A Retargetable System-Level DBT Hypervisor"
// (ACM TOCS 36(4), 2020).
//
// A Guest is a full-system virtual machine for the GA64 guest architecture
// (an AArch64-modelled ISA generated from an ADL description). Three
// execution engines are available: the Captive engine (host-MMU-backed
// guest memory, host-FP with bit-accuracy fix-ups, physically-indexed code
// cache), a QEMU-style baseline (softmmu, helper-call floating point,
// virtually-indexed cache), and a reference interpreter.
//
// Quick start:
//
//	p := ga64asm.New(0x1000)
//	p.MovI(0, 2)
//	p.MovI(1, 40)
//	p.Add(0, 0, 1)
//	p.Hlt(0)
//	img, _ := p.Assemble()
//
//	g, _ := captive.New(captive.Config{})
//	g.LoadImage(img, 0x1000, 0x1000)
//	g.Run(0)
//	fmt.Println(g.Reg(0)) // 42
package captive

import (
	"errors"
	"time"

	"captive/internal/bench"
	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
	"captive/internal/machine"
	"captive/internal/perf"
	"captive/internal/ssa"
)

// EngineKind selects the execution engine.
type EngineKind = machine.Kind

// Engine kinds.
const (
	// EngineCaptive is the paper's system: DBT inside a bare-metal host VM.
	EngineCaptive = machine.Captive
	// EngineQEMU is the baseline: softmmu + helper-call FP + VA-indexed cache.
	EngineQEMU = machine.QEMU
	// EngineInterp is the reference interpreter (golden model).
	EngineInterp = machine.Interp
)

// Config configures a Guest. The zero value is a usable Captive engine with
// 64 MiB of guest RAM.
type Config struct {
	Engine         EngineKind
	GuestRAMBytes  int  // default 64 MiB
	CodeCacheBytes int  // default 16 MiB, at most 1 GiB
	SoftFloat      bool // Captive only: use helper-call FP (§3.6.2 ablation)
	DisableChain   bool // disable block chaining (Fig. 21 methodology)
	OptLevel       int  // offline optimization level 1..4 (default 4, §3.6.1)
}

// Status describes the guest after Run returns.
type Status struct {
	Halted   bool
	ExitCode uint64
}

// Stats summarizes a run.
type Stats struct {
	GuestInstructions uint64
	HostCycles        float64 // simulated host cycles (3.5 GHz)
	SimSeconds        float64 // simulated wall-clock seconds
	MIPS              float64 // guest MIPS at the simulated clock
	BlocksTranslated  int
	CodeBytes         int
	JITTime           time.Duration // real time spent compiling
}

// Guest is a full-system GA64 virtual machine.
type Guest struct {
	m machine.Machine
}

// New creates a guest machine.
func New(cfg Config) (*Guest, error) {
	if cfg.GuestRAMBytes == 0 {
		cfg.GuestRAMBytes = 64 << 20
	}
	if cfg.CodeCacheBytes == 0 {
		cfg.CodeCacheBytes = 16 << 20
	}
	level := ssa.O4
	if cfg.OptLevel >= 1 && cfg.OptLevel <= 4 {
		level = ssa.OptLevel(cfg.OptLevel)
	}
	m, err := machine.New(machine.Spec{
		Kind:           cfg.Engine,
		Guest:          ga64.Port{},
		Level:          level,
		RAMBytes:       cfg.GuestRAMBytes,
		CodeCacheBytes: cfg.CodeCacheBytes,
		PTPoolBytes:    4 << 20,
		SoftFP:         cfg.SoftFloat,
		ChainingOff:    cfg.DisableChain,
	})
	if err != nil {
		return nil, err
	}
	return &Guest{m: m}, nil
}

// LoadImage copies a guest image to guest physical memory and sets the PC.
func (g *Guest) LoadImage(data []byte, gpa, entry uint64) error {
	return g.m.LoadImage(data, gpa, entry)
}

// LoadData copies raw bytes into guest physical memory.
func (g *Guest) LoadData(data []byte, gpa uint64) error { return g.m.LoadData(data, gpa) }

// Run executes the guest until it halts or the budget expires; an expired
// budget is not an error (the Status reports Halted false). budget counts
// steps, the unit of every engine: the interpreter executes at most that
// many instructions, the DBT engines spend at most 200 simulated host cycles
// per step. 0 means a generous default (4e9 steps).
func (g *Guest) Run(budget uint64) (Status, error) {
	if budget == 0 {
		budget = 4_000_000_000
	}
	err := g.m.Run(budget)
	if errors.Is(err, machine.ErrBudget) {
		err = nil
	}
	halted, code := g.m.Exit()
	return Status{Halted: halted, ExitCode: code}, err
}

// Reg reads guest register Xn (0..31; 31 is SP).
func (g *Guest) Reg(n int) uint64 { return g.m.Hart(0).Reg(n) }

// SetReg writes guest register Xn.
func (g *Guest) SetReg(n int, v uint64) { g.m.Hart(0).SetReg(n, v) }

// FReg reads the low 64 bits of vector register Vn.
func (g *Guest) FReg(n int) uint64 { return g.m.Hart(0).FReg(n) }

// PC returns the guest program counter.
func (g *Guest) PC() uint64 { return g.m.Hart(0).PC() }

// Console returns everything the guest wrote to its UART.
func (g *Guest) Console() string { return g.m.Console() }

// Stats returns run statistics. The interpreter has no simulated host
// clock and no JIT, so it reports guest instructions only.
func (g *Guest) Stats() Stats {
	ms := g.m.Metrics()
	secs := perf.Seconds(ms.SimDeciCycles)
	st := Stats{
		GuestInstructions: ms.GuestInstrs,
		HostCycles:        float64(ms.SimDeciCycles) / perf.DeciCyclesPerCycle,
		SimSeconds:        secs,
		BlocksTranslated:  ms.JITBlocks,
		CodeBytes:         ms.JITCodeBytes,
		JITTime:           time.Duration(ms.DecodeNS + ms.TranslateNS + ms.RegallocNS + ms.EncodeNS),
	}
	if secs > 0 {
		st.MIPS = float64(st.GuestInstructions) / secs / 1e6
	}
	return st
}

// BuildMiniOSImage pairs the bundled mini guest OS with a user program
// assembled at MiniOSUserBase: the program runs at EL0 with the mini-OS
// syscall interface (see MiniOSSys* constants).
func BuildMiniOSImage(user *asm.Program) (kernel, userImg []byte, entry, userPA uint64, err error) {
	img, err := bench.BuildSystemImage(user)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return img.Kernel, img.User, img.Entry, img.UserPA, nil
}

// MiniOSImage is a loadable preemptive mini-OS image: the scheduler kernel
// plus two user tasks.
type MiniOSImage struct {
	Kernel, Task0, Task1    []byte
	Entry, Task0PA, Task1PA uint64
}

// BuildMiniOSPreemptiveImage pairs the mini-OS preemptive kernel with two
// user tasks (assembled at MiniOSUserBase and MiniOSUser2Base). The kernel
// arms the platform timer for `slice` virtual cycles and round-robins the
// tasks on every timer interrupt; because interrupt injection is pinned to
// virtual time, the interleaving is identical on every engine.
func BuildMiniOSPreemptiveImage(task0, task1 *asm.Program, slice uint64) (MiniOSImage, error) {
	img, err := bench.BuildPreemptiveImage(task0, task1, slice)
	if err != nil {
		return MiniOSImage{}, err
	}
	return MiniOSImage{
		Kernel: img.Kernel, Task0: img.User, Task1: img.User2,
		Entry: img.Entry, Task0PA: img.UserPA, Task1PA: img.User2PA,
	}, nil
}

// Mini-OS ABI re-exports.
const (
	MiniOSUserBase   = bench.UserBase
	MiniOSUser2Base  = bench.User2Base
	MiniOSSysExit    = bench.SysExit
	MiniOSSysPutchar = bench.SysPutchar
	MiniOSSysCycles  = bench.SysCycles
	MiniOSSysYield   = bench.SysYield
)
