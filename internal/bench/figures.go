package bench

import (
	"fmt"
	"math"

	"captive/internal/core"
	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
	"captive/internal/machine"
	"captive/internal/metrics"
	"captive/internal/perf"
	"captive/internal/softfloat"
	"captive/internal/ssa"
)

// This file regenerates every table and figure of the paper's evaluation
// (§3): Experiments lists them, and each one runs the required workloads
// and renders the rows the paper reports.

// Experiment is one table or figure of the paper's evaluation.
type Experiment struct {
	Name     string // what cmd/bench selects it by, e.g. "fig17"
	Run      func() ([]perf.Table, error)
	Headline Headline
}

// Headline is the one value an experiment's benchmark reports: the cell at
// Row and Column of one of its tables, reported in Unit.
type Headline struct{ Row, Column, Unit string }

// Experiments returns the paper's evaluation in the order cmd/bench prints
// it.
func Experiments() []Experiment {
	return []Experiment{
		{"fig17", fig17, Headline{"Geo.Mean", "speedup", "geomean-speedup"}},
		{"fig18", fig18, Headline{"Geo.Mean", "speedup", "geomean-speedup"}},
		{"fig19", fig19, Headline{"Mem-Hot-MMU", "speedup", "mem-hot-mmu-speedup"}},
		{"fig20", fig20, Headline{"Translate", "percent", "translate-%"}},
		{"fig21", fig21, Headline{"code-quality-factor", "value", "block-quality-factor"}},
		{"fig22", fig22, Headline{"Captive", "speedup", "speedup-vs-qemu"}},
		{"table2", table2, Headline{"-inf", "captive", "captive-sqrt(-inf)-hi32"}},
		{"table5", func() ([]perf.Table, error) { return table5(RunRV64Workload) },
			Headline{"Geo.Mean", "speedup", "geomean-speedup"}},
		{"sec3.4", sec34, Headline{"bytes-per-guest-inst", "captive", "captive-bytes/guest-inst"}},
		{"sec3.6.1", sec361, Headline{"O4", "reduction%", "O4-reduction-%"}},
		{"sec3.6.2", sec362, Headline{"captive-hardfp", "speedup-vs-qemu", "hardfp-speedup-vs-qemu"}},
	}
}

// fig17 reproduces Fig. 17: SPEC CPU2006 integer runtimes for Captive and
// the QEMU baseline (a), and the per-benchmark speedup with geometric mean
// (b).
func fig17() ([]perf.Table, error) {
	absolute := perf.Table{
		Title:   "Fig 17a: SPECint absolute runtime (simulated seconds; lower is better)",
		Columns: []string{"qemu(s)", "captive(s)"},
	}
	speedup := perf.Table{
		Title:   "Fig 17b: SPECint speed-up of Captive over QEMU (higher is better)",
		Columns: []string{"speedup"},
	}
	var ratios []float64
	for _, w := range Integer() {
		c, q, err := Compare(w)
		if err != nil {
			return nil, err
		}
		absolute.Add(w.Name, q.Seconds, c.Seconds)
		s := perf.Speedup(q.Seconds, c.Seconds)
		speedup.Add(w.Name, s)
		ratios = append(ratios, s)
	}
	speedup.Add("Geo.Mean", perf.GeoMean(ratios))
	speedup.Notes = append(speedup.Notes,
		"paper: geometric mean 2.21x; 456.hmmer and 462.libquantum slower than QEMU")
	return []perf.Table{absolute, speedup}, nil
}

// fig18 reproduces Fig. 18: SPECfp speedups.
func fig18() ([]perf.Table, error) {
	t := perf.Table{
		Title:   "Fig 18: SPECfp speed-up of Captive over QEMU (higher is better)",
		Columns: []string{"speedup"},
	}
	var ratios []float64
	for _, w := range Float() {
		c, q, err := Compare(w)
		if err != nil {
			return nil, err
		}
		s := perf.Speedup(q.Seconds, c.Seconds)
		t.Add(w.Name, s)
		ratios = append(ratios, s)
	}
	t.Add("Geo.Mean", perf.GeoMean(ratios))
	t.Notes = append(t.Notes, "paper: geometric mean 6.49x (software FP in QEMU vs host FP + fix-ups)")
	return []perf.Table{t}, nil
}

// fig19 reproduces Fig. 19: SimBench micro-benchmark speedups.
func fig19() ([]perf.Table, error) {
	t := perf.Table{
		Title:   "Fig 19: SimBench speed-up of Captive over QEMU",
		Columns: []string{"speedup"},
	}
	for _, m := range SimBench() {
		c, err := RunMicro(machine.Captive, m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		q, err := RunMicro(machine.QEMU, m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		t.Add(m.Name, perf.Speedup(q.Seconds, c.Seconds))
	}
	t.Notes = append(t.Notes,
		"paper: Captive wins everywhere except Small/Large-Blocks (code generation) and Data-Fault")
	return []perf.Table{t}, nil
}

// fig20 reproduces Fig. 20: the share of JIT compilation time per phase,
// measured over the translation work of the full SPECint suite.
func fig20() ([]perf.Table, error) {
	t := perf.Table{
		Title:   "Fig 20: % of JIT compilation time per phase (Captive)",
		Columns: []string{"percent"},
	}
	var dec, tra, reg, enc int64 // host ns
	for _, w := range Integer() {
		r, err := RunWorkload(machine.Captive, w)
		if err != nil {
			return nil, err
		}
		dec += r.Metrics.DecodeNS
		tra += r.Metrics.TranslateNS
		reg += r.Metrics.RegallocNS
		enc += r.Metrics.EncodeNS
	}
	total := dec + tra + reg + enc
	if total == 0 {
		return nil, fmt.Errorf("fig20: no compilation time recorded")
	}
	pct := func(ns int64) float64 { return 100 * float64(ns) / float64(total) }
	t.Add("Decode", pct(dec))
	t.Add("Translate", pct(tra))
	t.Add("Register-Allocation", pct(reg))
	t.Add("Encode", pct(enc))
	t.Notes = append(t.Notes, "paper: decode 2.75%, translate 54.54%, regalloc 25.63%, encode 17.08%")
	return []perf.Table{t}, nil
}

// fig21 reproduces Fig. 21: per-block accumulated execution cycles with
// block chaining disabled on both engines, and the log-log regression whose
// vertical shift is the code-quality factor. The paper plots 429.mcf alone;
// our synthetic kernels have far fewer basic blocks than real mcf, so the
// scatter accumulates mcf plus two other branchy workloads for density.
func fig21() ([]perf.Table, error) {
	var xs, ys []float64
	for _, name := range []string{"429.mcf", "403.gcc", "471.omnetpp"} {
		x, y, err := fig21Points(name)
		if err != nil {
			return nil, err
		}
		xs = append(xs, x...)
		ys = append(ys, y...)
	}
	fit := perf.FitLogLog(xs, ys)
	t := perf.Table{
		Title:   "Fig 21: per-block code quality, chaining off (mcf+gcc+omnetpp)",
		Columns: []string{"value"},
	}
	t.Add("blocks-compared", float64(fit.N))
	t.Add("regression-slope", fit.Slope)
	t.Add("code-quality-factor", fit.Shift)
	t.Notes = append(t.Notes, "paper: blocks execute on average 3.44x faster on Captive (429.mcf)")
	return []perf.Table{t}, nil
}

func fig21Points(name string) (xs, ys []float64, err error) {
	w, _ := ByName(name)
	img, err := BuildSystemImage(w.Build())
	if err != nil {
		return nil, nil, err
	}

	// The hot-block profile is always on (PROFCNT arena counters), so no
	// profiling switch is needed; the chaining-off methodology is kept only
	// because it is what the paper's Fig. 21 scatter measures.
	profile := func(kind machine.Kind) (map[uint64]uint64, map[uint64]uint64, error) {
		s := spec(kind, ga64.Port{})
		s.ChainingOff = true
		m, err := run(s, img)
		if err != nil {
			return nil, nil, err
		}
		cycles := make(map[uint64]uint64)
		runs := make(map[uint64]uint64)
		for _, bp := range m.(*core.SMP).VCPU(0).ProfileSnapshot() {
			cycles[bp.PC] = bp.Cycles
			runs[bp.PC] = bp.Runs
		}
		return cycles, runs, nil
	}
	cap, capRuns, err := profile(machine.Captive)
	if err != nil {
		return nil, nil, err
	}
	qemu, _, err := profile(machine.QEMU)
	if err != nil {
		return nil, nil, err
	}
	// The paper's scatter accumulates thousands of steady-state blocks;
	// with our small kernel image, boot blocks executed once or twice
	// carry one-time demand-population faults that are noise at this
	// scale — restrict the regression to blocks with a steady execution
	// count, like the paper's accumulated-time methodology does
	// implicitly.
	const minRuns = 8
	for pc, cc := range cap {
		if qc, ok := qemu[pc]; ok && cc > 0 && qc > 0 && capRuns[pc] >= minRuns {
			xs = append(xs, float64(cc))
			ys = append(ys, float64(qc))
		}
	}
	return xs, ys, nil
}

// Native performance models for Fig. 22 (DESIGN.md §1: analytic CPI models
// substitute for physical hardware).
const (
	a53Hz  = 1.2e9 // Raspberry Pi 3 Model B, Cortex-A53
	a53CPI = 1.45
	a57Hz  = 2.0e9 // AMD Opteron A1170, Cortex-A57
	a57CPI = 0.95
)

// fig22 reproduces Fig. 22: Captive and QEMU against native ARMv8 platforms,
// as speedups relative to QEMU across the SPECint suite.
func fig22() ([]perf.Table, error) {
	t := perf.Table{
		Title:   "Fig 22: speed-up relative to QEMU (SPECint aggregate)",
		Columns: []string{"speedup"},
	}
	var qemuS, capS, instrs float64
	for _, w := range Integer() {
		c, q, err := Compare(w)
		if err != nil {
			return nil, err
		}
		qemuS += q.Seconds
		capS += c.Seconds
		instrs += float64(c.GuestInstrs)
	}
	rpi := instrs * a53CPI / a53Hz
	a1170 := instrs * a57CPI / a57Hz
	t.Add("QEMU", 1.0)
	t.Add("Raspberry-Pi-3 (A53 1.2GHz)", qemuS/rpi)
	t.Add("Captive", qemuS/capS)
	t.Add("AMD-A1170 (A57 2.0GHz)", qemuS/a1170)
	t.Notes = append(t.Notes,
		"paper: Captive ~2x a 1.2GHz Cortex-A53, ~40% of a 2.0GHz Cortex-A57",
		fmt.Sprintf("captive absolute: %.0f guest MIPS", instrs/capS/1e6))
	return []perf.Table{t}, nil
}

// table2 reproduces Table 2: x86 SQRTSD vs ARM FSQRT corner cases, and
// verifies the Captive engine's fix-up path lands on the ARM column.
func table2() ([]perf.Table, error) {
	t := perf.Table{
		Title:   "Table 2: square-root corner cases (bit patterns)",
		Columns: []string{"x86", "arm", "captive"},
	}
	inputs := []struct {
		name string
		bits uint64
	}{
		{"0.0", 0x0000000000000000},
		{"-0.0", 0x8000000000000000},
		{"+inf", softfloat.PosInf},
		{"-inf", softfloat.NegInf},
		{"0.5", math.Float64bits(0.5)},
		{"-0.5", math.Float64bits(-0.5)},
		{"+NaN", softfloat.DefaultNaNARM},
		{"-NaN", 0xFFF8000000000000},
	}
	// Run all eight through the Captive engine's generated code.
	p := asm.New(0x1000)
	for i, in := range inputs {
		p.MovI(2, in.bits)
		p.FmovXG(uint32(i+8), 2)
		p.Fsqrt(uint32(i+8), uint32(i+8))
	}
	p.Hlt(1)
	img, err := BareMetal(p)
	if err != nil {
		return nil, err
	}
	m, err := run(spec(machine.Captive, ga64.Port{}), img)
	if err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}
	for i, in := range inputs {
		x86 := softfloat.Sqrt64(in.bits, softfloat.SemX86)
		arm := softfloat.Sqrt64(in.bits, softfloat.SemARM)
		got := m.FReg(0, i+8)
		if got != arm {
			return nil, fmt.Errorf("table2: captive fsqrt(%s) = %#x, want ARM %#x", in.name, got, arm)
		}
		t.Add(in.name, float64(x86>>32), float64(arm>>32), float64(got>>32))
	}
	t.Notes = append(t.Notes,
		"values shown are the high 32 bits of the result; captive == arm for every row",
		"x86 yields the negative indefinite NaN for -inf and -0.5; ARM the positive default NaN")
	return []perf.Table{t}, nil
}

// sec34 reproduces the §3.4 JIT statistics: per-block translation cost
// ratio, code size per guest instruction, and executed host instructions
// per guest instruction, using 429.mcf as in the paper.
func sec34() ([]perf.Table, error) {
	t := perf.Table{
		Title:   "Sec 3.4: JIT compilation and code-size statistics (429.mcf)",
		Columns: []string{"captive", "qemu"},
	}
	w, _ := ByName("429.mcf")
	c, err := RunWorkload(machine.Captive, w)
	if err != nil {
		return nil, err
	}
	q, err := RunWorkload(machine.QEMU, w)
	if err != nil {
		return nil, err
	}
	cm, qm := c.Metrics, q.Metrics
	perBlock := func(m metrics.Snapshot) float64 {
		return float64(m.DecodeNS+m.TranslateNS+m.RegallocNS+m.EncodeNS) / float64(max(1, m.JITBlocks))
	}
	perInstr := func(n int, m metrics.Snapshot) float64 { return float64(n) / float64(max(1, m.JITGuestInstrs)) }
	t.Add("blocks-translated", float64(cm.JITBlocks), float64(qm.JITBlocks))
	t.Add("bytes-per-guest-inst", perInstr(cm.JITCodeBytes, cm), perInstr(qm.JITCodeBytes, qm))
	t.Add("host-ns-per-block(jit)", perBlock(cm), perBlock(qm))
	t.Add("lir-per-guest-inst", perInstr(cm.JITLIRInsts, cm), perInstr(qm.JITLIRInsts, qm))
	t.Notes = append(t.Notes,
		"paper: Captive 2.6x slower per translated block; 67.53 vs 40.26 bytes/guest instruction",
		"paper: ~10 executed host instructions per guest instruction")
	return []perf.Table{t}, nil
}

// sec361 reproduces §3.6.1: generated-code size (SSA statements, the
// generated-lines proxy) of the full GA64 model at offline levels O1–O4.
func sec361() ([]perf.Table, error) {
	t := perf.Table{
		Title:   "Sec 3.6.1: offline optimization level vs generated model size",
		Columns: []string{"ssa-stmts", "reduction%"},
	}
	var o1Count int
	for _, level := range []ssa.OptLevel{ssa.O1, ssa.O2, ssa.O3, ssa.O4} {
		m, err := ga64.NewModule(level)
		if err != nil {
			return nil, err
		}
		total := 0
		for _, in := range m.Instrs {
			total += in.Action.StmtCount()
		}
		if level == ssa.O1 {
			o1Count = total
		}
		t.Add(fmt.Sprintf("O%d", level), float64(total),
			100*(1-float64(total)/float64(o1Count)))
	}
	t.Notes = append(t.Notes, "paper: 271,299 lines at O1 vs 120,162 at O4 (56% reduction)")
	return []perf.Table{t}, nil
}

// fpMicro builds the §3.6.2 floating-point micro-benchmark: a loop over
// common FP operations.
func fpMicro() *asm.Program {
	p := asm.New(KernelBase)
	p.MovF(8, 2, 1.00001)
	p.MovF(9, 2, 0.99999)
	p.MovF(10, 2, 0.0)
	p.MovI(2, 150000)
	p.MovI(19, heap)
	p.MovI(3, 0)
	p.Label("loop")
	// Address generation and bookkeeping around the FP work, as in real
	// FP kernels (array indexing, loop counters, loads/stores).
	p.MovI(4, 1023)
	p.And(4, 2, 4)
	p.LdrR(5, 19, 4, 3)
	p.AddI(5, 5, 3)
	p.StrR(5, 19, 4, 3)
	p.Add(3, 3, 5)
	p.Fmul(11, 8, 9)
	p.Fadd(10, 10, 11)
	p.Fsub(12, 8, 9)
	p.Fdiv(13, 8, 9)
	p.Fadd(10, 10, 12)
	p.Fadd(10, 10, 13)
	p.Fsqrt(14, 10)
	p.Fadd(10, 10, 14)
	p.SubsI(2, 2, 1)
	p.BCond(ga64.CondNE, "loop")
	p.Fcvtzs(1, 10)
	p.Hlt(1)
	return p
}

// sec362 reproduces §3.6.2: hardware vs software floating point. Three
// configurations: Captive with host FP (+fix-ups), QEMU with software FP,
// and Captive with software FP (the internal ablation).
func sec362() ([]perf.Table, error) {
	t := perf.Table{
		Title:   "Sec 3.6.2: hardware vs software floating point (FP micro-benchmark)",
		Columns: []string{"sim-seconds", "speedup-vs-qemu"},
	}
	img, err := BareMetal(fpMicro())
	if err != nil {
		return nil, err
	}
	hw, err := RunImage(machine.Captive, img, "fpmicro")
	if err != nil {
		return nil, err
	}
	soft := spec(machine.Captive, ga64.Port{})
	soft.SoftFP = true
	sw, err := runImage(soft, img, "fpmicro", 1)
	if err != nil {
		return nil, err
	}
	qm, err := RunImage(machine.QEMU, img, "fpmicro")
	if err != nil {
		return nil, err
	}
	if hw.Checksum != sw.Checksum || hw.Checksum != qm.Checksum {
		return nil, fmt.Errorf("sec362: FP results disagree: %#x %#x %#x",
			hw.Checksum, sw.Checksum, qm.Checksum)
	}
	t.Add("captive-hardfp", hw.Seconds, qm.Seconds/hw.Seconds)
	t.Add("captive-softfp", sw.Seconds, qm.Seconds/sw.Seconds)
	t.Add("qemu-softfp", qm.Seconds, 1.0)
	t.Notes = append(t.Notes,
		"paper: hard-FP Captive 2.17x over QEMU; soft-FP Captive 1.68x; 1.3x within Captive",
		fmt.Sprintf("measured within-captive hardware-FP gain: %.2fx", sw.Seconds/hw.Seconds))
	return []perf.Table{t}, nil
}

// SmallBlocksProgram exposes the Small-Blocks generator for the translation
// throughput benchmark.
func SmallBlocksProgram() *asm.Program { return smallBlocks() }
