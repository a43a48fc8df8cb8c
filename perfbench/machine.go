package main

// Machines and operations. The benchmark drives the system only through its
// public calls: ga64.NewModule / rv64.NewModule, hvm.New, core.New / NewQEMU
// / NewSMP / NewSMPQEMU, LoadImage / LoadUser, Run / RunParallel / RunDet and
// Metrics(). The expected outcome of every operation comes from the
// reference interpreter (interp.Machine, or interp.Cluster under the
// deterministic scheduler for smp2), never from an engine under test.

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"captive/internal/core"
	"captive/internal/gen"
	"captive/internal/guest/ga64"
	"captive/internal/guest/port"
	"captive/internal/guest/rv64"
	"captive/internal/hvm"
	"captive/internal/interp"
	"captive/internal/metrics"
	"captive/internal/ssa"
)

// engines measured by every workload, in the order a round runs them.
var engines = []string{"captive", "qemu"}

// smpQuantum is the deterministic scheduler's slice (retired instructions),
// shared by the QEMU baseline's RunDet and the reference cluster.
const smpQuantum = 1000

const ramBytes = 64 << 20

// vmConfig is the host VM of every machine: the configuration of the
// repository's guest-MIPS harness (64 MiB guest RAM, 32 MiB code cache).
func vmConfig(harts int) hvm.Config {
	return hvm.Config{GuestRAMBytes: ramBytes, CodeCacheBytes: 32 << 20, PTPoolBytes: 4 << 20, VCPUs: harts}
}

func guestPort(guest string) port.Port {
	if guest == "rv64" {
		return rv64.Port{}
	}
	return ga64.Port{}
}

// buildModule is the first (cold) module build of a guest.
func buildModule(guest string) (*gen.Module, error) {
	if guest == "rv64" {
		return rv64.NewModule(ssa.O4)
	}
	return ga64.NewModule(ssa.O4)
}

// machine is one engine instance loaded with one program, built before the
// first timed run and kept reachable until the last measurement.
type machine struct {
	prog   *program
	engine string
	e      *core.Engine // uniprocessor
	s      *core.SMP    // smp2
}

// harts returns the machine's vCPU engines.
func (m *machine) harts() []*core.Engine {
	if m.s == nil {
		return []*core.Engine{m.e}
	}
	out := make([]*core.Engine, m.s.N())
	for i := range out {
		out[i] = m.s.VCPU(i)
	}
	return out
}

// newMachine builds and loads one machine and returns the wall time of its
// construction calls (hvm.New, core.New*, LoadImage / LoadUser). tr (nil
// when untraced) records one span per call.
func newMachine(p *program, engine string, mod *gen.Module, tr *tracer) (*machine, time.Duration, error) {
	m := &machine{prog: p, engine: engine}
	g := guestPort(p.guest)
	t0 := time.Now()

	sp := tr.begin("hvm.New", p.name, engine)
	vm, err := hvm.New(vmConfig(p.harts))
	tr.endHeap(sp)
	if err != nil {
		return nil, 0, err
	}

	switch {
	case p.harts > 1 && engine == "qemu":
		sp = tr.begin("core.NewSMPQEMU", p.name, engine)
		m.s, err = core.NewSMPQEMU(vm, g, mod)
	case p.harts > 1:
		sp = tr.begin("core.NewSMP", p.name, engine)
		m.s, err = core.NewSMP(vm, g, mod)
	case engine == "qemu":
		sp = tr.begin("core.NewQEMU", p.name, engine)
		m.e, err = core.NewQEMU(vm, g, mod)
	default:
		sp = tr.begin("core.New", p.name, engine)
		m.e, err = core.New(vm, g, mod)
	}
	tr.endHeap(sp)
	if err != nil {
		return nil, 0, err
	}

	boot := m.harts()[0]
	for i, seg := range p.segs {
		if i == 0 {
			sp = tr.begin("LoadImage", p.name, engine)
			err = boot.LoadImage(seg.data, seg.pa, p.entry)
		} else {
			sp = tr.begin("LoadUser", p.name, engine)
			err = boot.LoadUser(seg.data, seg.pa)
		}
		tr.end(sp, nil)
		if err != nil {
			return nil, 0, err
		}
	}
	for _, h := range m.harts()[1:] {
		h.SetPC(p.entry) // secondary harts enter at the same image entry
	}
	return m, time.Since(t0), nil
}

// metrics returns the machine's Metrics() summed over harts.
func (m *machine) metrics() metrics.Snapshot {
	var sum metrics.Snapshot
	for _, h := range m.harts() {
		addSnapshot(&sum, h.Metrics())
	}
	return sum
}

// run is the one Run call of the operation: Run on a uniprocessor,
// RunParallel for Captive on smp2, RunDet for the QEMU baseline on smp2.
func (m *machine) run() error {
	switch {
	case m.s == nil:
		return m.e.Run(budget)
	case m.engine == "qemu":
		return m.s.RunDet(budget, smpQuantum)
	default:
		return m.s.RunParallel(budget)
	}
}

// runName is the public call run makes, for spans.
func (m *machine) runName() string {
	switch {
	case m.s == nil:
		return "Run"
	case m.engine == "qemu":
		return "RunDet"
	default:
		return "RunParallel"
	}
}

// outcome is the compared final state of one program run.
type outcome struct {
	halted  bool
	code    uint64
	instrs  []uint64   // retired guest instructions, per hart
	regs    [][]uint64 // checksum registers, per hart
	console string
}

// outcome reads the machine's final state after its run.
func (m *machine) outcome() outcome {
	o := outcome{console: m.harts()[0].Console()}
	o.halted, o.code = m.harts()[0].Halted()
	if m.s != nil {
		o.halted, o.code = m.s.Halted()
	}
	for _, h := range m.harts() {
		o.instrs = append(o.instrs, h.GuestInstrs())
		regs := make([]uint64, len(m.prog.sums))
		for i, r := range m.prog.sums {
			regs[i] = h.Reg(r)
		}
		o.regs = append(o.regs, regs)
	}
	return o
}

// check compares an engine's outcome with the reference.
func (o outcome) check(want outcome) error {
	switch {
	case !o.halted:
		return fmt.Errorf("no clean halt")
	case o.code != want.code:
		return fmt.Errorf("exit code %#x, want %#x", o.code, want.code)
	case !reflect.DeepEqual(o.instrs, want.instrs):
		return fmt.Errorf("retired instructions %v, want %v", o.instrs, want.instrs)
	case !reflect.DeepEqual(o.regs, want.regs):
		return fmt.Errorf("checksum registers %x, want %x", o.regs, want.regs)
	case o.console != want.console:
		return fmt.Errorf("console %q, want %q", o.console, want.console)
	}
	return nil
}

// reference runs p on the golden interpreter. It must run after every
// measurement: its allocations would otherwise be reused by later machines.
func reference(p *program, mod *gen.Module) (outcome, error) {
	cl := interp.NewCluster(guestPort(p.guest), mod, ramBytes, p.harts)
	boot := cl.Machines[0]
	for i, seg := range p.segs {
		if i == 0 {
			if err := boot.LoadImage(seg.data, seg.pa, p.entry); err != nil {
				return outcome{}, err
			}
		} else {
			copy(boot.Mem[seg.pa:], seg.data)
		}
	}
	for _, h := range cl.Machines[1:] {
		h.SetPC(p.entry)
	}
	var err error
	if p.harts > 1 {
		err = cl.RunDet(4_000_000_000, smpQuantum)
	} else {
		_, err = boot.Run(4_000_000_000)
	}
	if err != nil {
		return outcome{}, fmt.Errorf("reference %s: %w", p.name, err)
	}
	o := outcome{halted: cl.Halted(), code: boot.ExitCode, console: cl.Console()}
	for _, h := range cl.Machines {
		o.instrs = append(o.instrs, h.Instrs)
		regs := make([]uint64, len(p.sums))
		for i, r := range p.sums {
			regs[i] = h.Reg(r)
		}
		o.regs = append(o.regs, regs)
	}
	if !o.halted {
		return o, fmt.Errorf("reference %s: no clean halt", p.name)
	}
	return o, nil
}

// addSnapshot adds every numeric field of b into a (per-hart aggregation).
func addSnapshot(a *metrics.Snapshot, b metrics.Snapshot) {
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		f := av.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + bv.Field(i).Uint())
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + bv.Field(i).Int())
		}
	}
}

// deltaSnapshot returns after − before for every numeric field, keyed by
// the field's JSON name, omitting zero deltas.
func deltaSnapshot(before, after metrics.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	bv, av := reflect.ValueOf(before), reflect.ValueOf(after)
	t := bv.Type()
	for i := 0; i < t.NumField(); i++ {
		var d int64
		switch t.Field(i).Type.Kind() {
		case reflect.Uint64:
			d = int64(av.Field(i).Uint() - bv.Field(i).Uint())
		case reflect.Int, reflect.Int64:
			d = av.Field(i).Int() - bv.Field(i).Int()
		default:
			continue
		}
		if d != 0 {
			name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			out[name] = d
		}
	}
	return out
}
