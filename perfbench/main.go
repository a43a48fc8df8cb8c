// Command perfbench is the repository's same-host benchmark: guest MIPS,
// model CPI, set-up time and memory of the Captive engine and the QEMU-style
// baseline on four workloads (steady, cold, system, smp2). One invocation
// measures one workload in a process of its own and prints one JSON result
// as the last line of standard output. See README.md.
//
//	go run . --workload steady --seed 1 --seconds 22 --trace 0
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"captive/internal/gen"
	"captive/internal/metrics"
)

// workload is one benchmark workload: its programs (from the seed) and the
// nominal wall time of one round — every program once on every engine — on
// the reference host, which fixes how many rounds fill --seconds. The round
// count depends only on --seconds, so base and head of a comparison do the
// same work.
type workload struct {
	programs func(seed int64) ([]*program, error)
	roundSec float64
}

var workloads = map[string]workload{
	"steady": {func(int64) ([]*program, error) { return steadyPrograms() }, 7},
	"cold":   {coldPrograms, 4.5},
	"system": {systemPrograms, 3.4},
	"smp2":   {func(seed int64) ([]*program, error) { p, err := smpProgram(seed); return []*program{p}, err }, 1.8},
}

func (w workload) rounds(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/w.roundSec)))
}

// gcAllowance is the garbage a run may allocate before a collection,
// whatever the number of machines alive. Only cold's runs allocate more than
// half of it; they collect a few times per run.
const gcAllowance = 256 << 20

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// op is one operation: one program run on one engine.
type op struct {
	prog   *program
	engine string
	round  int
	traced bool
	m      *machine

	wall           time.Duration
	stolen         time.Duration // of wall, time the host ran no vCPU of ours
	err            error
	out            outcome
	instrs, cycles uint64 // retired guest instructions and simulated deci-cycles
	heap           int64  // live heap bytes the machine held after its run
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: steady, cold, system or smp2")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 22, "measured wall time on the reference host")
		traced  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		spans   = flag.String("spans", "", "where the traced run writes its spans (JSON)")
	)
	probe := flag.Bool("module-probe", false, "build the modules of --workload's guests once and print the seconds taken")
	flag.Parse()
	if *probe {
		if err := moduleProbe(*name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *traced == 1, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, spansPath string) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	progs, err := w.programs(seed)
	if err != nil {
		return err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	root := tr.begin("workload", name, "")
	plan := roundPlan(w.rounds(seconds), traced)
	mods, ops, setupS, err := setUp(name, progs, plan, tr)
	if err != nil {
		return err
	}
	for i := range ops {
		measure(&ops[i], tr)
	}
	tr.end(root, nil)
	debug.SetGCPercent(100)
	rssMiB, err := peakRSSMiB()
	if err != nil {
		return err
	}

	t0 := time.Now()
	failed := check(ops, progs, mods)
	fmt.Fprintf(os.Stderr, "  reference: %.2f s\n", time.Since(t0).Seconds())

	var out []metric
	if traced {
		out = layerMetrics(tr, len(plan)/2, overhead(ops))
		if spansPath != "" {
			if err := tr.write(spansPath); err != nil {
				return err
			}
		}
	} else {
		out = endToEnd(ops, setupS, rssMiB)
	}
	return report(name, ops, out, failed)
}

// roundPlan says which rounds are traced: none, or for a traced run half of
// them (at least one), interleaved with untraced ones so both halves see the
// same host conditions.
func roundPlan(rounds int, traced bool) []bool {
	if !traced {
		return make([]bool, rounds)
	}
	plan := make([]bool, 2*max(1, rounds/2))
	for i := range plan {
		plan[i] = i%2 == 1
	}
	return plan
}

// setUp makes every call into the system that precedes the first timed run
// — the module builds and one machine per round, program and engine — and
// returns the modules, the operations and setup_s. setup_s takes each part
// as a median: the cold module builds (median of fresh processes, as a build
// is cached per process) plus the machines times the median construction
// time of one machine.
func setUp(name string, progs []*program, plan []bool, tr *tracer) (map[string]*gen.Module, []op, float64, error) {
	modSecs, err := moduleProbes(name)
	if err != nil {
		return nil, nil, 0, err
	}
	runtime.GC() // input generation's garbage: set-up starts on a settled heap
	sp := tr.begin("setup", "", "")
	defer tr.end(sp, nil)
	mods := map[string]*gen.Module{}
	for _, g := range guestsOf(progs) {
		msp := tr.begin(g+".NewModule", "", "")
		mods[g], err = buildModule(g)
		tr.end(msp, nil)
		if err != nil {
			return nil, nil, 0, err
		}
	}
	var ops []op
	var times []time.Duration
	for r, traced := range plan {
		for _, p := range progs {
			for _, eng := range engines {
				o := op{prog: p, engine: eng, round: r, traced: traced}
				m, d, err := newMachine(p, eng, mods[p.guest], o.tracer(tr))
				if err != nil {
					return nil, nil, 0, fmt.Errorf("%s on %s: %w", p.name, eng, err)
				}
				o.m = m
				ops = append(ops, o)
				times = append(times, d)
			}
		}
	}
	perMachine := median(toSeconds(times))
	fmt.Fprintf(os.Stderr, "  setup: modules %.2f ms, %d machines x %.2f ms\n", modSecs*1e3, len(times), perMachine*1e3)
	return mods, ops, modSecs + float64(len(times))*perMachine, nil
}

// runTime is the operation's wall time less the time stolen from this
// virtual machine by its host, the stolen share capped at half (steal is
// sampled in 10 ms ticks per CPU).
func (o *op) runTime() time.Duration {
	return max(o.wall-o.stolen, o.wall/2)
}

// tracer returns tr for a traced operation and nil otherwise.
func (o *op) tracer(tr *tracer) *tracer {
	if o.traced {
		return tr
	}
	return nil
}

// measure runs one operation: one Run* call, timed, in a closed loop with
// the others. The machine stays reachable until its last measurement — the
// run, its metrics and outcome, and the heap it holds (live heap with it,
// minus live heap without it) — and is released after it.
func measure(o *op, tr *tracer) {
	tr = o.tracer(tr)
	// Pace the collector by a fixed allowance of garbage per run, not by
	// the live heap of every machine built up front (which would defer
	// collection for gigabytes of fresh pages).
	debug.SetGCPercent(max(1, int(100*gcAllowance/float64(heapInUse()))))
	var before metrics.Snapshot
	if tr != nil {
		before = o.m.metrics()
	}
	steal0, alloc0 := stolen(), heapAllocs()
	sp := tr.begin(o.m.runName(), o.prog.name, o.engine)
	t0 := time.Now()
	o.err = o.m.run()
	o.wall = time.Since(t0)
	o.stolen = stolen() - steal0
	after := o.m.metrics()
	if tr != nil {
		tr.end(sp, deltaSnapshot(before, after))
	}
	alloc := heapAllocs() - alloc0
	o.instrs, o.cycles = after.GuestInstrs, after.SimDeciCycles
	o.out = o.m.outcome()

	runtime.GC()
	runtime.GC() // a second cycle empties sync.Pool victim caches
	alive := heapInUse()
	o.m = nil
	runtime.GC()
	o.heap = int64(alive) - int64(heapInUse())

	mark := " "
	if o.traced {
		mark = "*"
	}
	fmt.Fprintf(os.Stderr, "  %-20s %-8s round %d%s %7.3f s  stolen %6.3f s  %9d instrs  alloc %6.1f MiB\n",
		o.prog.name, o.engine, o.round, mark, o.wall.Seconds(), o.stolen.Seconds(), o.instrs, float64(alloc)/(1<<20))
}

// endToEnd computes the seven user-visible metrics from the untraced rounds.
func endToEnd(ops []op, setupS, rssMiB float64) []metric {
	out := []metric{}
	var heap, n float64
	for _, o := range ops {
		if !o.traced {
			heap += float64(o.heap)
			n++
		}
	}
	for _, eng := range engines {
		out = append(out,
			metric{eng + "_mips", mipsOf(ops, eng), "MIPS"},
			metric{eng + "_dcpi", dcpiOf(ops, eng), "dcycles/instr"})
	}
	return append(out,
		metric{"setup_s", setupS, "s"},
		metric{"heap_mib", heap / n / (1 << 20), "MiB"},
		metric{"rss_mib", rssMiB, "MiB"})
}

// mipsOf is Σ instructions / Σ median run time over the engine's programs:
// each program's run time is the median over the rounds of its wall time
// less the time stolen from this virtual machine by its host.
func mipsOf(ops []op, eng string) float64 {
	walls := map[*program][]time.Duration{}
	instrs := map[*program]uint64{}
	for _, o := range ops {
		if o.traced || o.engine != eng {
			continue
		}
		walls[o.prog] = append(walls[o.prog], o.runTime())
		instrs[o.prog] = o.instrs
	}
	var n uint64
	var secs float64
	for p, ws := range walls {
		n += instrs[p]
		secs += median(toSeconds(ws))
	}
	return float64(n) / secs / 1e6
}

// dcpiOf is simulated deci-cycles per retired guest instruction.
func dcpiOf(ops []op, eng string) float64 {
	var n, c uint64
	for _, o := range ops {
		if o.traced || o.engine != eng {
			continue
		}
		n += o.instrs
		c += o.cycles
	}
	return float64(c) / float64(n)
}

// overhead is the traced rounds' run time over the untraced rounds', minus
// one (run times less stolen time, as for MIPS).
func overhead(ops []op) float64 {
	var t, u time.Duration
	for _, o := range ops {
		if o.traced {
			t += o.runTime()
		} else {
			u += o.runTime()
		}
	}
	return t.Seconds()/u.Seconds() - 1
}

// check runs the reference for every distinct program (concurrently, at
// most one per host CPU) and compares every operation against it. It
// returns the number of failed operations.
func check(ops []op, progs []*program, mods map[string]*gen.Module) int {
	want := make([]outcome, len(progs))
	refErr := make([]error, len(progs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, p := range progs {
		wg.Add(1)
		go func(i int, p *program) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			want[i], refErr[i] = reference(p, mods[p.guest])
		}(i, p)
	}
	wg.Wait()
	failed := 0
	for _, o := range ops {
		i := slices.Index(progs, o.prog)
		err := o.err
		if err == nil {
			err = refErr[i]
		}
		if err == nil {
			err = o.out.check(want[i])
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "FAIL %s on %s (round %d): %v\n", o.prog.name, o.engine, o.round, err)
		}
	}
	return failed
}
