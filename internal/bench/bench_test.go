package bench

import (
	"strings"
	"sync"
	"testing"

	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
	"captive/internal/machine"
)

// runs holds one *cachedRun per engine/guest/workload key, so the tests
// that assert on the same run — the model golden, the cross-engine
// agreement checks and the retarget figure — share it instead of each
// running it again.
var runs sync.Map

type cachedRun struct {
	once sync.Once
	res  Result
	err  error
}

// runOnce returns the result of the run key names, running it on first use.
func runOnce(key string, run func() (Result, error)) (Result, error) {
	v, _ := runs.LoadOrStore(key, new(cachedRun))
	c := v.(*cachedRun)
	c.once.Do(func() { c.res, c.err = run() })
	return c.res, c.err
}

// rowKey names a run as engine/guest/workload.
func rowKey(kind machine.Kind, guest, workload string) string {
	return kind.String() + "/" + guest + "/" + workload
}

// ga64Run is RunWorkload through the shared run cache.
func ga64Run(kind machine.Kind, w Workload) (Result, error) {
	return runOnce(rowKey(kind, "ga64", w.Name), func() (Result, error) { return RunWorkload(kind, w) })
}

// rv64Run is RunRV64Workload through the shared run cache.
func rv64Run(kind machine.Kind, w RVWorkload) (Result, error) {
	return runOnce(rowKey(kind, "rv64", w.Name), func() (Result, error) { return RunRV64Workload(kind, w) })
}

// TestMiniOSBoot boots the mini-OS with a trivial user program that prints
// and exits, on all three engines: the console, the checksum, the kernel's
// exit code and the retired instruction count must agree everywhere.
func TestMiniOSBoot(t *testing.T) {
	p := UserProgram()
	p.MovI(1, 0)
	for _, ch := range "hello\n" {
		p.MovI(0, uint64(ch))
		p.Svc(SysPutchar)
	}
	p.MovI(1, 0xC0FFEE)
	p.MovI(0, 42)
	p.Svc(SysExit)
	img, err := BuildSystemImage(p)
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	for i, kind := range []machine.Kind{machine.Interp, machine.Captive, machine.QEMU} {
		res, err := RunImage(kind, img, "boot")
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Console != "hello\n" {
			t.Errorf("%v: console = %q", kind, res.Console)
		}
		if res.Checksum != 0xC0FFEE {
			t.Errorf("%v: checksum = %#x", kind, res.Checksum)
		}
		// The user's exit status (42, in X0) stays with the guest: the
		// kernel's SysExit handler ends every run with hlt #1, and the
		// harness records the hlt immediate.
		if res.ExitCode != 1 {
			t.Errorf("%v: exit code = %d, want 1 (the kernel's hlt #1)", kind, res.ExitCode)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.GuestInstrs != ref.GuestInstrs {
			t.Errorf("%v: retired %d instrs, interp retired %d", kind, res.GuestInstrs, ref.GuestInstrs)
		}
	}
}

// TestPreemptiveScheduler boots the preemptive mini-OS with two chatty tasks
// on all three engines and requires the timer-driven interleaving — console
// bytes and retired instruction counts — to be identical everywhere:
// preemption points are a function of virtual time only.
func TestPreemptiveScheduler(t *testing.T) {
	chatter := func(p *asm.Program, ch byte, reps int) {
		if reps > 0 {
			p.MovI(20, uint64(reps))
		}
		p.Label("loop")
		p.MovI(0, uint64(ch))
		p.Svc(SysPutchar)
		p.MovI(21, 100)
		p.Label("delay")
		p.SubsI(21, 21, 1)
		p.BCond(ga64.CondNE, "delay")
		if reps > 0 {
			p.SubsI(20, 20, 1)
			p.BCond(ga64.CondNE, "loop")
			p.MovI(1, 0xD00D) // checksum register
			p.MovI(0, 9)
			p.Svc(SysExit)
		} else {
			p.B("loop")
		}
	}
	t0 := UserProgram()
	chatter(t0, 'A', 30)
	t1 := User2Program()
	chatter(t1, 'b', 0)
	img, err := BuildPreemptiveImage(t0, t1, 1500)
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	for i, kind := range []machine.Kind{machine.Interp, machine.Captive, machine.QEMU} {
		res, err := RunImage(kind, img, "preempt")
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !strings.Contains(res.Console, "Ab") && !strings.Contains(res.Console, "bA") {
			t.Errorf("%v: no task interleaving in console %q", kind, res.Console)
		}
		if res.Checksum != 0xD00D {
			t.Errorf("%v: checksum = %#x, task 0 never exited", kind, res.Checksum)
		}
		if i == 0 {
			ref = res
			t.Logf("interleaving: %q (%d instrs)", res.Console, res.GuestInstrs)
			continue
		}
		if res.Console != ref.Console {
			t.Errorf("%v: console %q diverges from interp %q", kind, res.Console, ref.Console)
		}
		if res.GuestInstrs != ref.GuestInstrs {
			t.Errorf("%v: retired %d instrs, interp retired %d", kind, res.GuestInstrs, ref.GuestInstrs)
		}
	}
}

// TestTable5Retarget regenerates the retarget figure: the RV64 kernels run
// on both DBT engines through rv64.Port with identical checksums and
// instruction counts, and Captive comes out ahead of the baseline overall.
func TestTable5Retarget(t *testing.T) {
	tables, err := table5(rv64Run)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	geomean := tab.Rows[len(tab.Rows)-1]
	if geomean.Name != "Geo.Mean" {
		t.Fatalf("last row = %q, want Geo.Mean", geomean.Name)
	}
	if s := geomean.Values[len(geomean.Values)-1]; s <= 1 {
		t.Errorf("retargeted RV64 geomean speedup = %.2fx, want > 1x over the baseline", s)
	}
	t.Log(tab.String())
}

// TestWorkloadsAgreeAcrossEngines runs every SPEC-shaped workload under
// Captive and the QEMU baseline and requires identical checksums — the
// system-level differential test.
func TestWorkloadsAgreeAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential run")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			c, err := ga64Run(machine.Captive, w)
			if err != nil {
				t.Fatal(err)
			}
			q, err := ga64Run(machine.QEMU, w)
			if err != nil {
				t.Fatal(err)
			}
			if err := agree(c, q); err != nil {
				t.Fatal(err)
			}
			if c.GuestInstrs == 0 || q.GuestInstrs == 0 {
				t.Fatalf("no instructions retired: %d / %d", c.GuestInstrs, q.GuestInstrs)
			}
			t.Logf("%s: captive %.3fs (%d Minst), qemu %.3fs, speedup %.2fx, chk %#x",
				w.Name, c.Seconds, c.GuestInstrs/1e6, q.Seconds, q.Seconds/c.Seconds, c.Checksum)
		})
	}
}

// TestSimBenchRuns executes every micro-benchmark on both engines.
func TestSimBenchRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long micro-benchmark run")
	}
	// Parallel with TestModelGolden: the golden's rows fill the second CPU
	// while one CPU spends most of this test on QEMU's TLB-Flush run.
	t.Parallel()
	for _, m := range SimBench() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			c, err := RunMicro(machine.Captive, m)
			if err != nil {
				t.Fatal(err)
			}
			q, err := RunMicro(machine.QEMU, m)
			if err != nil {
				t.Fatal(err)
			}
			if c.ExitCode == 0x3FFF || q.ExitCode == 0x3FFF {
				t.Fatalf("benchmark trapped: captive exit %#x, qemu exit %#x", c.ExitCode, q.ExitCode)
			}
			t.Logf("%s: captive %.4fs, qemu %.4fs, speedup %.2fx",
				m.Name, c.Seconds, q.Seconds, q.Seconds/c.Seconds)
		})
	}
}

// TestWorkloadInterpSpotCheck validates two small workloads against the
// reference interpreter (full-system differential).
func TestWorkloadInterpSpotCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("interpreter is slow")
	}
	for _, name := range []string{"445.gobmk", "435.gromacs"} {
		w, ok := ByName(name)
		if !ok {
			t.Fatal("missing workload")
		}
		ci, err := ga64Run(machine.Captive, w)
		if err != nil {
			t.Fatal(err)
		}
		ii, err := ga64Run(machine.Interp, w)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Checksum != ii.Checksum {
			t.Errorf("%s: captive chk %#x, interp chk %#x", name, ci.Checksum, ii.Checksum)
		}
	}
}
