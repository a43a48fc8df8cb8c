package machine_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"captive/internal/core"
	"captive/internal/guest/ga64"
	gasm "captive/internal/guest/ga64/asm"
	"captive/internal/guest/port"
	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
	"captive/internal/hvm"
	"captive/internal/interp"
	"captive/internal/machine"
	"captive/internal/metrics"
	"captive/internal/smp"
	"captive/internal/ssa"
)

const (
	org     = 0x1000
	ram     = 8 << 20
	budget  = 1_000_000
	quantum = 64
)

// program is one conformance input: an image for a guest.
type program struct {
	name  string
	guest port.Port
	img   []byte
}

func assemble(t *testing.T, p interface{ Assemble() ([]byte, error) }) []byte {
	t.Helper()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// programs returns the conformance inputs: for each guest a loop whose
// result depends on the hart ID, and a wfi with no wake source — which must
// halt cleanly (a uniprocessor idle-halt; every hart parked, for two).
func programs(t *testing.T) []program {
	wfi := rvasm.New(org)
	wfi.Li(10, 5)
	wfi.Wfi()
	wfi.Li(11, 7)
	wfi.Ecall()

	lcg := rvasm.New(org)
	lcg.Csrr(5, rv64.CSRMhartid)
	lcg.Li(10, 300)
	lcg.Addi(11, 5, 1)
	lcg.Li(13, 6364136223846793005)
	lcg.Label("loop")
	lcg.Mul(11, 11, 13)
	lcg.Addi(11, 11, 1)
	lcg.Addi(10, 10, -1)
	lcg.Bne(10, rvasm.X0, "loop")
	lcg.Ecall()

	gwfi := gasm.New(org)
	gwfi.MovI(1, 5)
	gwfi.Wfi()
	gwfi.MovI(2, 7)
	gwfi.Hlt(0)

	gloop := gasm.New(org)
	gloop.Mrs(3, ga64.SysMPIDR)
	gloop.MovI(0, 0)
	gloop.MovI(2, 400)
	gloop.Label("loop")
	gloop.Add(0, 0, 2)
	gloop.Add(0, 0, 3)
	gloop.SubsI(2, 2, 1)
	gloop.BCond(ga64.CondNE, "loop")
	gloop.Hlt(0)

	return []program{
		{"rv64-wfi", rv64.Port{}, assemble(t, wfi)},
		{"rv64-lcg", rv64.Port{}, assemble(t, lcg)},
		{"ga64-wfi", ga64.Port{}, assemble(t, gwfi)},
		{"ga64-loop", ga64.Port{}, assemble(t, gloop)},
	}
}

// result is the compared end state of one run.
type result struct {
	regs   [][]byte
	exits  []uint64
	instrs []uint64
	// N = 1 on the DBT engines: the simulated-model counters.
	cycles, loops uint64
}

// viaMachine runs a program through machine.New.
func viaMachine(t *testing.T, kind machine.Kind, p program, harts int) result {
	t.Helper()
	m, err := machine.New(machine.Spec{Kind: kind, Guest: p.guest, RAMBytes: ram,
		CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20, Harts: harts, Quantum: quantum})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(p.img, org, org); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(budget); err != nil {
		t.Fatal(err)
	}
	var r result
	for i := 0; i < m.N(); i++ {
		halted, code := m.HartExit(i)
		if !halted {
			t.Fatalf("hart %d did not halt", i)
		}
		r.regs = append(r.regs, m.RegState(i))
		r.exits = append(r.exits, code)
		r.instrs = append(r.instrs, m.GuestInstrs(i))
	}
	ms := m.Metrics()
	r.cycles, r.loops = ms.SimDeciCycles, ms.DispatchLoops
	return r
}

// direct runs a program through the engines' own constructors and run
// calls: the uniprocessor paths for one hart, the deterministic scheduler
// for more.
func direct(t *testing.T, kind machine.Kind, p program, harts int) result {
	t.Helper()
	module, err := p.guest.Module(ssa.O4)
	if err != nil {
		t.Fatal(err)
	}
	var r result
	if kind == machine.Interp {
		var ms []*interp.Machine
		if harts == 1 {
			m := interp.New(p.guest, module, ram)
			if err := m.LoadImage(p.img, org, org); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(budget); err != nil {
				t.Fatal(err)
			}
			ms = []*interp.Machine{m}
		} else {
			cl := interp.NewCluster(p.guest, module, ram, harts)
			if err := cl.Machines[0].LoadImage(p.img, org, org); err != nil {
				t.Fatal(err)
			}
			for _, m := range cl.Machines[1:] {
				m.SetPC(org)
			}
			if err := cl.RunDet(uint64(harts)*budget, quantum); err != nil {
				t.Fatal(err)
			}
			ms = cl.Machines
		}
		for _, m := range ms {
			r.regs = append(r.regs, m.RegState())
			r.exits = append(r.exits, m.ExitCode)
			r.instrs = append(r.instrs, m.Instrs)
		}
		return r
	}
	vm, err := hvm.New(hvm.Config{GuestRAMBytes: ram, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20, VCPUs: harts})
	if err != nil {
		t.Fatal(err)
	}
	var engines []*core.Engine
	cycles := uint64(budget * smp.DeciCyclesPerStep)
	if harts == 1 {
		var e *core.Engine
		if kind == machine.QEMU {
			e, err = core.NewQEMU(vm, p.guest, module)
		} else {
			e, err = core.New(vm, p.guest, module)
		}
		if err == nil {
			if err = e.LoadImage(p.img, org, org); err == nil {
				err = e.Run(cycles)
			}
		}
		engines = []*core.Engine{e}
	} else {
		var s *core.SMP
		if kind == machine.QEMU {
			s, err = core.NewSMPQEMU(vm, p.guest, module)
		} else {
			s, err = core.NewSMP(vm, p.guest, module)
		}
		if err == nil {
			if err = s.VCPU(0).LoadImage(p.img, org, org); err == nil {
				for i := 1; i < harts; i++ {
					s.VCPU(i).SetPC(org)
				}
				err = s.RunDet(cycles, quantum)
			}
			for i := 0; i < harts; i++ {
				engines = append(engines, s.VCPU(i))
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		_, code := e.Halted()
		r.regs = append(r.regs, e.RegState())
		r.exits = append(r.exits, code)
		r.instrs = append(r.instrs, e.GuestInstrs())
	}
	ms := engines[0].Metrics()
	r.cycles, r.loops = ms.SimDeciCycles, ms.DispatchLoops
	return r
}

// TestConformance holds machine.New to the engines' own construction and
// run paths over kind × guest × harts ∈ {1, 2}: identical registers, exit
// codes and per-hart retired counts everywhere, and at one hart on the DBT
// engines the identical simulated model (deci-cycles and dispatcher trips)
// — N = 1 is the uniprocessor, not the deterministic scheduler.
func TestConformance(t *testing.T) {
	for _, p := range programs(t) {
		for _, kind := range []machine.Kind{machine.Interp, machine.Captive, machine.QEMU} {
			for _, harts := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/x%d", p.name, kind, harts), func(t *testing.T) {
					got, want := viaMachine(t, kind, p, harts), direct(t, kind, p, harts)
					for i := range want.regs {
						if !bytes.Equal(got.regs[i], want.regs[i]) {
							t.Errorf("hart %d: registers differ", i)
						}
					}
					if fmt.Sprint(got.exits, got.instrs) != fmt.Sprint(want.exits, want.instrs) {
						t.Errorf("exit codes/retired %v/%v, want %v/%v", got.exits, got.instrs, want.exits, want.instrs)
					}
					if kind != machine.Interp && harts == 1 && (got.cycles != want.cycles || got.loops != want.loops) {
						t.Errorf("model moved: %d deci-cycles/%d dispatches, want %d/%d",
							got.cycles, got.loops, want.cycles, want.loops)
					}
				})
			}
		}
	}
}

// TestMetricsSumHarts checks a two-hart run's metrics against its harts on
// every engine: counters are totals, the virtual clock is the machine's.
func TestMetricsSumHarts(t *testing.T) {
	p := programs(t)[1] // rv64-lcg: different work per hart
	for _, kind := range []machine.Kind{machine.Interp, machine.Captive, machine.QEMU} {
		m, err := machine.New(machine.Spec{Kind: kind, Guest: p.guest, RAMBytes: ram,
			CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20, Harts: 2, Quantum: quantum})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadImage(p.img, org, org); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(budget); err != nil {
			t.Fatal(err)
		}
		var harts []metrics.Snapshot
		switch x := m.(type) {
		case *core.SMP:
			harts = []metrics.Snapshot{x.VCPU(0).Metrics(), x.VCPU(1).Metrics()}
		case *interp.Cluster:
			harts = []metrics.Snapshot{x.Machines[0].Metrics(), x.Machines[1].Metrics()}
		}
		sum := m.Metrics()
		if sum.GuestInstrs != m.GuestInstrs(0)+m.GuestInstrs(1) || sum.GuestInstrs != harts[0].GuestInstrs+harts[1].GuestInstrs {
			t.Errorf("%s: guest_instrs %d, harts retired %d+%d", kind, sum.GuestInstrs, m.GuestInstrs(0), m.GuestInstrs(1))
		}
		if sum.SimDeciCycles != harts[0].SimDeciCycles+harts[1].SimDeciCycles ||
			sum.JITBlocks != harts[0].JITBlocks+harts[1].JITBlocks ||
			sum.DispatchLoops != harts[0].DispatchLoops+harts[1].DispatchLoops {
			t.Errorf("%s: counters are not the hart totals: %+v vs %+v", kind, sum, harts)
		}
		if sum.VirtualTime != harts[0].VirtualTime || sum.Engine != kind.String() {
			t.Errorf("%s: virtual time %d (hart 0 %d), engine %q", kind, sum.VirtualTime, harts[0].VirtualTime, sum.Engine)
		}
		if kind != machine.Interp && sum.SimDeciCycles == 0 {
			t.Errorf("%s: no simulated cycles", kind)
		}
	}
}

// TestBudgetSentinel checks that an expired budget is the one sentinel on
// every engine, at one and two harts and in both N > 1 run modes.
func TestBudgetSentinel(t *testing.T) {
	spin := rvasm.New(org)
	spin.Label("spin")
	spin.Jal(rvasm.X0, "spin")
	img := assemble(t, spin)
	for _, kind := range []machine.Kind{machine.Interp, machine.Captive, machine.QEMU} {
		for _, s := range []struct{ harts, quantum int }{{1, 0}, {2, quantum}, {2, 0}} {
			if s.quantum == 0 && s.harts > 1 && kind != machine.Captive {
				continue // only Captive runs harts truly parallel
			}
			m, err := machine.New(machine.Spec{Kind: kind, Guest: rv64.Port{}, RAMBytes: ram,
				CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20, Harts: s.harts, Quantum: uint64(s.quantum)})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadImage(img, org, org); err != nil {
				t.Fatal(err)
			}
			if err := m.Run(10_000); !errors.Is(err, machine.ErrBudget) {
				t.Errorf("%s x%d (quantum %d): Run = %v, want ErrBudget", kind, s.harts, s.quantum, err)
			}
		}
	}
}

// TestAddressWrap loads and reads 8 bytes at guest physical 2^64-4, where
// the end address wraps past zero: every engine, at one and two harts, must
// return an error and must not panic.
func TestAddressWrap(t *testing.T) {
	const pa = 1<<64 - 4
	buf := make([]byte, 8)
	for _, kind := range []machine.Kind{machine.Interp, machine.Captive, machine.QEMU} {
		for _, harts := range []int{1, 2} {
			m, err := machine.New(machine.Spec{Kind: kind, Guest: rv64.Port{}, RAMBytes: ram,
				CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20, Harts: harts, Quantum: quantum})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				call func() error
			}{
				{"LoadImage", func() error { return m.LoadImage(buf, pa, pa) }},
				{"LoadData", func() error { return m.LoadData(buf, pa) }},
				{"ReadRAM", func() error { return m.ReadRAM(pa, buf) }},
			} {
				name := fmt.Sprintf("%s x%d %s", kind, harts, c.name)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s at %#x panicked: %v", name, uint64(pa), r)
						}
					}()
					if err := c.call(); err == nil {
						t.Errorf("%s at %#x returned no error", name, uint64(pa))
					}
				}()
			}
		}
	}
}

// liveHeap returns the Go heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// totalPhys returns the size of the flat physical memory hvm.New allocates
// for cfg.
func totalPhys(t *testing.T, cfg hvm.Config) uint64 {
	t.Helper()
	vm, err := hvm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return vm.Layout.TotalPhys
}

// TestHeapBound holds the Go heap that machine.New adds for a DBT machine
// to its flat physical memory (hvm Layout.TotalPhys) plus 1 MiB per hart.
// Everything else a machine allocates up front — the exit index over the
// code cache, superblock tables, host MMU and system state — must stay
// small and must not scale with the code cache's size.
func TestHeapBound(t *testing.T) {
	guest := ga64.Port{}
	if _, err := guest.Module(ssa.O4); err != nil { // cached per process: not the machine's
		t.Fatal(err)
	}
	for _, sz := range []struct{ ram, cache int }{{8 << 20, 4 << 20}, {64 << 20, 32 << 20}} {
		for _, harts := range []int{1, 2, 4} {
			cfg := hvm.Config{GuestRAMBytes: sz.ram, CodeCacheBytes: sz.cache, PTPoolBytes: 4 << 20, VCPUs: harts}
			phys := totalPhys(t, cfg)
			limit := phys + uint64(harts)<<20
			for _, kind := range []machine.Kind{machine.Captive, machine.QEMU} {
				before := liveHeap()
				m, err := machine.New(machine.Spec{Kind: kind, Guest: guest, RAMBytes: cfg.GuestRAMBytes,
					CodeCacheBytes: cfg.CodeCacheBytes, PTPoolBytes: cfg.PTPoolBytes, Harts: harts})
				if err != nil {
					t.Fatal(err)
				}
				added := liveHeap() - before
				runtime.KeepAlive(m)
				name := fmt.Sprintf("%s x%d, %d MiB RAM, %d MiB cache", kind, harts, sz.ram>>20, sz.cache>>20)
				if added > limit {
					t.Errorf("%s: machine.New added %.1f MiB of heap, want at most %.1f (physical memory + 1 MiB per hart)",
						name, float64(added)/(1<<20), float64(limit)/(1<<20))
				} else {
					t.Logf("%s: %.2f MiB over physical memory", name, (float64(added)-float64(phys))/(1<<20))
				}
			}
		}
	}
}

// TestKindNames pins the one engine-naming scheme.
func TestKindNames(t *testing.T) {
	for _, k := range []machine.Kind{machine.Captive, machine.QEMU, machine.Interp} {
		if got, err := machine.ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k, got, err)
		}
	}
	if _, err := machine.ParseKind("bochs"); err == nil {
		t.Error("ParseKind accepted an unknown engine")
	}
}
