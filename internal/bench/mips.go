package bench

// Guest-MIPS harness: the wall-clock axis of the performance story. Every
// other figure in this package reports *simulated* time (deci-cycles of the
// VX64 host at 3.5 GHz) — the model, which a perf PR must never move. This
// harness measures the other axis: how fast the simulator itself executes,
// as retired guest instructions per host wall-clock second (guest MIPS),
// across engine × guest × workload. BENCH_<n>.json files committed at the
// repo root record the trajectory; CI regenerates a fresh report as an
// artifact on every PR (the bench-smoke job).
//
// Each row also carries the simulated deci-cycle count of the run, so a
// before/after pair doubles as a model-invariance check: wall seconds may
// (must) move, sim_deci_cycles may not.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"captive/internal/guest/ga64"
	"captive/internal/guest/rv64"
	"captive/internal/machine"
	"captive/internal/metrics"
)

// MIPSRow is one engine × guest × workload measurement.
type MIPSRow struct {
	Guest       string  `json:"guest"`
	Workload    string  `json:"workload"`
	Engine      string  `json:"engine"`
	GuestInstrs uint64  `json:"guest_instrs"`
	WallSeconds float64 `json:"wall_seconds"`
	GuestMIPS   float64 `json:"guest_mips"`
	// SimDeciCycles is the simulated host clock consumed by the run — the
	// model. Perf PRs must keep this bit-identical per row (0 for the
	// interpreter, which has no host-cycle model).
	SimDeciCycles uint64 `json:"sim_deci_cycles"`
	Checksum      uint64 `json:"checksum"`
	// RunMode is "deterministic" or "parallel"; MergeBaseline holds the
	// simulated cycles of deterministic rows only.
	RunMode string `json:"run_mode,omitempty"`
	// Metrics is the engine's unified metrics snapshot for the run (JIT
	// phase times, code bytes, chain counts, …). Its wall-clock-derived
	// fields vary run to run; MergeBaseline never reads this section.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// Key identifies a row across reports.
func (r MIPSRow) Key() string { return r.Engine + "/" + r.Guest + "/" + r.Workload }

// MIPSReport is the guest-MIPS benchmark report written to BENCH_*.json.
type MIPSReport struct {
	Schema string `json:"schema"`
	Note   string `json:"note"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	NumCPU int    `json:"num_cpu"`
	Short  bool   `json:"short"`

	Rows []MIPSRow `json:"rows"`

	// Baseline, when present, is the pre-optimization report the Speedup
	// map is computed against (wall-clock only; sim cycles must match).
	Baseline []MIPSRow          `json:"baseline,omitempty"`
	Speedup  map[string]float64 `json:"speedup,omitempty"`
}

const mipsSchema = "captive/guest-mips/v1"

// mipsGA64Workloads selects the Fig. 17 SPECint-shaped workloads measured
// by the harness; short mode trims to three representative kernels
// (pointer-chasing, DP recurrence, streaming) so the CI smoke job stays
// fast.
func mipsGA64Workloads(short bool) []Workload {
	if !short {
		return Integer()
	}
	var out []Workload
	for _, w := range Integer() {
		switch w.Name {
		case "429.mcf", "456.hmmer", "462.libquantum":
			out = append(out, w)
		}
	}
	return out
}

// mipsRV64Workloads selects the retarget kernels; short mode keeps the
// factorial kernel only.
func mipsRV64Workloads(short bool) []RVWorkload {
	all := RVWorkloads()
	if short {
		return all[:1]
	}
	return all
}

// mipsEngines is the engine set measured per workload.
var mipsEngines = []machine.Kind{machine.Captive, machine.QEMU, machine.Interp}

// Run modes recorded per row. Deterministic runs (every uniprocessor row,
// and N > 1 under the deterministic scheduler) reproduce their simulated
// cycles bit-for-bit; parallel runs charge a dispatcher trip per
// stop-the-world kick that lands, which depends on the host schedule.
const (
	modeDeterministic = "deterministic"
	modeParallel      = "parallel"
)

// mipsRow is the report row of one timed run on the machine s describes.
func mipsRow(s machine.Spec, guest string, res Result) MIPSRow {
	row := MIPSRow{
		Guest: guest, Workload: res.Workload, Engine: s.Kind.String(), RunMode: modeDeterministic,
		GuestInstrs: res.GuestInstrs, WallSeconds: res.Wall.Seconds(),
		SimDeciCycles: res.Metrics.SimDeciCycles, Checksum: res.Checksum, Metrics: &res.Metrics,
	}
	if s.Harts > 1 && s.Quantum == 0 {
		row.RunMode = modeParallel
	}
	row.GuestMIPS = mips(row.GuestInstrs, row.WallSeconds)
	return row
}

func mips(instrs uint64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(instrs) / seconds / 1e6
}

// GuestMIPS runs the full guest-MIPS matrix and returns the report.
// Engines are created and destroyed per row, so rows are independent
// measurements of a cold-started simulator reaching steady state.
func GuestMIPS(short bool) (*MIPSReport, error) {
	rep := &MIPSReport{
		Schema: mipsSchema,
		Note: "guest MIPS = retired guest instructions per host wall-clock second; " +
			"sim_deci_cycles is the simulated-time model and must not change in perf PRs",
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Short:  short,
	}
	// Each row times only the run itself: image build and machine
	// construction are excluded.
	add := func(s machine.Spec, guest string, res Result, err error) error {
		if err == nil {
			rep.Rows = append(rep.Rows, mipsRow(s, guest, res))
		}
		return err
	}
	for _, w := range mipsGA64Workloads(short) {
		img, err := BuildSystemImage(w.Build())
		if err != nil {
			return nil, err
		}
		for _, k := range mipsEngines {
			s := spec(k, ga64.Port{})
			res, err := runImage(s, img, w.Name, 1)
			if err := add(s, "ga64", res, err); err != nil {
				return nil, err
			}
		}
	}
	for _, w := range mipsRV64Workloads(short) {
		for _, k := range mipsEngines {
			s := spec(k, rv64.Port{})
			res, err := runRV64(s, w.Build(), w.Name)
			if err := add(s, "rv64", res, err); err != nil {
				return nil, err
			}
		}
	}
	for _, n := range smpScalingCounts(short) {
		s := spec(machine.Captive, rv64.Port{})
		s.Harts = n // Quantum 0: truly parallel harts
		res, err := runRV64(s, rvSMPKernel(smpScalingIters(short)), fmt.Sprintf("smp-lcg-x%d", n))
		if err := add(s, "rv64", res, err); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// MergeBaseline attaches a pre-optimization report and computes wall-clock
// speedups per row key. It returns an error if the baseline disagrees with
// this report on the model: guest instruction counts, checksums or — for
// deterministic rows — simulated cycle counts; a perf change must move
// wall-clock only.
func (r *MIPSReport) MergeBaseline(base *MIPSReport) error {
	byKey := make(map[string]MIPSRow, len(base.Rows))
	for _, row := range base.Rows {
		byKey[row.Key()] = row
	}
	r.Baseline = base.Rows
	r.Speedup = make(map[string]float64)
	for _, row := range r.Rows {
		b, ok := byKey[row.Key()]
		if !ok {
			continue
		}
		if b.GuestInstrs != row.GuestInstrs || b.Checksum != row.Checksum {
			return fmt.Errorf("bench: %s: guest-visible state moved vs baseline (instrs %d→%d, chk %#x→%#x)",
				row.Key(), b.GuestInstrs, row.GuestInstrs, b.Checksum, row.Checksum)
		}
		if b.SimDeciCycles != row.SimDeciCycles && row.RunMode != modeParallel {
			return fmt.Errorf("bench: %s: simulated cycles moved vs baseline (%d→%d) — the model changed, not just wall-clock",
				row.Key(), b.SimDeciCycles, row.SimDeciCycles)
		}
		if b.WallSeconds > 0 && row.WallSeconds > 0 {
			r.Speedup[row.Key()] = b.WallSeconds / row.WallSeconds
		}
	}
	return nil
}

// WriteJSON writes the report to path (pretty-printed, trailing newline).
func (r *MIPSReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadMIPSReport loads a report written by WriteJSON.
func ReadMIPSReport(path string) (*MIPSReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep MIPSReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if rep.Schema != mipsSchema {
		return nil, fmt.Errorf("bench: %s: unexpected schema %q", path, rep.Schema)
	}
	return &rep, nil
}

// String renders the report as an aligned text table.
func (r *MIPSReport) String() string {
	out := fmt.Sprintf("Guest MIPS (host wall-clock; %s/%s, %d CPUs)\n",
		r.GoOS, r.GoArch, r.NumCPU)
	for _, row := range r.Rows {
		line := fmt.Sprintf("  %-26s %-8s %10d instrs  %8.3fs  %8.2f MIPS",
			row.Guest+"/"+row.Workload, row.Engine, row.GuestInstrs, row.WallSeconds, row.GuestMIPS)
		if s, ok := r.Speedup[row.Key()]; ok {
			line += fmt.Sprintf("  (%0.2fx vs baseline)", s)
		}
		out += line + "\n"
	}
	return out
}
