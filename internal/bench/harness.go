package bench

import (
	"fmt"

	"captive/internal/guest/ga64"
	"captive/internal/guest/port"
	"captive/internal/machine"
	"captive/internal/metrics"
	"captive/internal/perf"
)

// Result is the outcome of one workload run.
type Result struct {
	Workload    string
	Engine      machine.Kind
	Seconds     float64 // simulated wall-clock (deci-cycles @ 3.5 GHz)
	GuestInstrs uint64  // retired, summed over harts
	Checksum    uint64  // the checksum register at exit, XORed over harts
	ExitCode    uint64
	Console     string
	Metrics     metrics.Snapshot // summed over harts
}

// budget bounds every harness run, in machine steps (the interpreter's step
// limit; the DBT engines get the equivalent simulated-time bound).
const budget = 2_000_000_000

// spec is the machine every harness run uses: 64 MiB of guest RAM, a
// 32 MiB code cache and a 4 MiB page-table pool.
func spec(kind machine.Kind, g port.Port) machine.Spec {
	return machine.Spec{Kind: kind, Guest: g, RAMBytes: 64 << 20, CodeCacheBytes: 32 << 20, PTPoolBytes: 4 << 20}
}

// run builds the machine s describes, loads img (the kernel at KernelBase,
// then any user segments) and runs it to a halt.
func run(s machine.Spec, img Image) (machine.Machine, error) {
	m, err := machine.New(s)
	if err != nil {
		return nil, err
	}
	if err := m.LoadImage(img.Kernel, KernelBase, img.Entry); err != nil {
		return nil, err
	}
	for _, seg := range []struct {
		data []byte
		pa   uint64
	}{{img.User, img.UserPA}, {img.User2, img.User2PA}} {
		if seg.data == nil {
			continue
		}
		if err := m.LoadData(seg.data, seg.pa); err != nil {
			return nil, err
		}
	}
	if err := m.Run(budget); err != nil {
		return nil, fmt.Errorf("%w (pc=%#x)", err, m.PC(0))
	}
	if halted, _ := m.Exit(); !halted {
		return nil, fmt.Errorf("did not halt")
	}
	return m, nil
}

// runImage runs img on the machine s describes and reports it; sumReg is the
// guest's checksum register.
func runImage(s machine.Spec, img Image, name string, sumReg int) (Result, error) {
	res := Result{Workload: name, Engine: s.Kind}
	m, err := run(s, img)
	if err != nil {
		return res, fmt.Errorf("bench %s/%s: %w", name, s.Kind, err)
	}
	res.Metrics = m.Metrics()
	res.Seconds = perf.Seconds(res.Metrics.SimDeciCycles)
	res.GuestInstrs = res.Metrics.GuestInstrs
	for i := 0; i < m.N(); i++ {
		res.Checksum ^= m.Reg(i, sumReg)
	}
	_, res.ExitCode = m.Exit()
	res.Console = m.Console()
	return res, nil
}

// RunImage executes a GA64 guest image on the chosen engine.
func RunImage(kind machine.Kind, img Image, name string) (Result, error) {
	return runImage(spec(kind, ga64.Port{}), img, name, 1)
}

// RunWorkload builds and executes a SPEC-shaped workload under the mini-OS.
func RunWorkload(kind machine.Kind, w Workload) (Result, error) {
	img, err := BuildSystemImage(w.Build())
	if err != nil {
		return Result{}, err
	}
	return RunImage(kind, img, w.Name)
}

// RunMicro builds and executes a SimBench micro-benchmark (bare metal).
func RunMicro(kind machine.Kind, m Micro) (Result, error) {
	img, err := BareMetal(m.Build())
	if err != nil {
		return Result{}, err
	}
	return RunImage(kind, img, m.Name)
}

// Compare runs a workload on Captive and the QEMU baseline, validates the
// checksums agree, and returns both results.
func Compare(w Workload) (captive, qemu Result, err error) {
	captive, err = RunWorkload(machine.Captive, w)
	if err != nil {
		return
	}
	qemu, err = RunWorkload(machine.QEMU, w)
	if err != nil {
		return
	}
	err = agree(captive, qemu)
	return
}

// agree requires a workload's Captive and QEMU runs to end with the same
// checksum and exit code.
func agree(captive, qemu Result) error {
	if captive.Checksum != qemu.Checksum || captive.ExitCode != qemu.ExitCode {
		return fmt.Errorf("bench %s: engines disagree: captive chk=%#x exit=%d, qemu chk=%#x exit=%d",
			captive.Workload, captive.Checksum, captive.ExitCode, qemu.Checksum, qemu.ExitCode)
	}
	return nil
}
