package bench

// The model gate. Every figure of this package reports simulated time, the
// deci-cycle model of the VX64 host, which perf changes must never move; host
// wall-clock is measured by the perfbench module instead. TestModelGolden
// runs the model's reference rows and holds them against
// testdata/model.golden: retired guest instructions and the checksum on
// every row, and simulated deci-cycles on every deterministic row. A
// declared model change replaces the golden with the table the failing test
// logs.

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
	"captive/internal/machine"
)

const goldenPath = "testdata/model.golden"

const goldenHeader = `# The simulated model, held by TestModelGolden (internal/bench). One row per
# run: engine/guest/workload, retired guest instructions, checksum, simulated
# deci-cycles. Truly parallel rows show "-" for cycles, which follow the host
# schedule there; their instructions and checksum are still held. After a
# declared model change, replace this file with the table the test logs.
`

// goldenRow is one line of the golden.
type goldenRow struct {
	Key      string // engine/guest/workload
	Instrs   uint64 // retired guest instructions, summed over harts
	Checksum uint64
	Cycles   uint64 // simulated deci-cycles; 0 on the interpreter, which has no cycle model
	Parallel bool   // truly parallel harts: Cycles is not held
}

// cycles is the row's cycle field as the golden writes it.
func (r goldenRow) cycles() string {
	if r.Parallel {
		return "-"
	}
	return strconv.FormatUint(r.Cycles, 10)
}

// formatGolden renders rows in the golden's format, header included.
func formatGolden(rows []goldenRow) string {
	var b strings.Builder
	b.WriteString(goldenHeader)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %9d %#18x %10s\n", r.Key, r.Instrs, r.Checksum, r.cycles())
	}
	return b.String()
}

// parseGolden reads the rows of a golden, skipping blank and '#' lines.
func parseGolden(text string) ([]goldenRow, error) {
	var rows []goldenRow
	seen := make(map[string]bool)
	for i, line := range strings.Split(text, "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var r goldenRow
		var cycles string
		if n := len(strings.Fields(line)); n != 4 {
			return nil, fmt.Errorf("line %d: %d fields, want 4", i+1, n)
		}
		if _, err := fmt.Sscan(line, &r.Key, &r.Instrs, &r.Checksum, &cycles); err != nil {
			return nil, fmt.Errorf("line %d: %v", i+1, err)
		}
		if r.Parallel = cycles == "-"; !r.Parallel {
			var err error
			if r.Cycles, err = strconv.ParseUint(cycles, 10, 64); err != nil {
				return nil, fmt.Errorf("line %d: %v", i+1, err)
			}
		}
		if seen[r.Key] {
			return nil, fmt.Errorf("line %d: duplicate row %s", i+1, r.Key)
		}
		seen[r.Key] = true
		rows = append(rows, r)
	}
	return rows, nil
}

// compareGolden lists every way the rows a run produced depart from the
// golden: a moved value (instructions and checksum on every row, cycles on
// deterministic rows), a produced row the golden lacks and, when full, a
// golden row the run did not produce.
func compareGolden(golden, produced []goldenRow, full bool) []string {
	want := make(map[string]goldenRow, len(golden))
	for _, r := range golden {
		want[r.Key] = r
	}
	var diffs []string
	seen := make(map[string]bool, len(produced))
	for _, got := range produced {
		seen[got.Key] = true
		w, ok := want[got.Key]
		if !ok {
			diffs = append(diffs, got.Key+": produced, but not in the golden")
			continue
		}
		if w.Instrs != got.Instrs {
			diffs = append(diffs, fmt.Sprintf("%s: guest instructions %d → %d", got.Key, w.Instrs, got.Instrs))
		}
		if w.Checksum != got.Checksum {
			diffs = append(diffs, fmt.Sprintf("%s: checksum %#x → %#x", got.Key, w.Checksum, got.Checksum))
		}
		if w.cycles() != got.cycles() {
			diffs = append(diffs, fmt.Sprintf("%s: deci-cycles %s → %s", got.Key, w.cycles(), got.cycles()))
		}
	}
	if full {
		for _, r := range golden {
			if !seen[r.Key] {
				diffs = append(diffs, r.Key+": in the golden, but not produced")
			}
		}
	}
	return diffs
}

// goldenCase is one row the gate runs.
type goldenCase struct {
	key      string
	short    bool // in the -short subset
	parallel bool
	run      func() (Result, error)
}

// smpIters sizes the per-hart SMP kernel: 16,000,027 instructions per hart.
const smpIters = 4_000_000

// goldenCases lists the rows the gate holds, in golden order: the twelve
// Fig. 17 workloads and the four RV64 kernels on every engine, then the
// SMP kernel on 1, 2 and 4 truly parallel Captive harts. -short keeps
// 429.mcf (the workload of §3.4 and Fig. 21) and the RV64 kernels, whose
// Captive and QEMU runs TestTable5Retarget makes anyway.
func goldenCases() []goldenCase {
	engines := []machine.Kind{machine.Captive, machine.QEMU, machine.Interp}
	var cs []goldenCase
	for _, w := range Integer() {
		for _, k := range engines {
			w, k := w, k
			cs = append(cs, goldenCase{key: rowKey(k, "ga64", w.Name), short: w.Name == "429.mcf",
				run: func() (Result, error) { return ga64Run(k, w) }})
		}
	}
	for _, w := range RVWorkloads() {
		for _, k := range engines {
			w, k := w, k
			cs = append(cs, goldenCase{key: rowKey(k, "rv64", w.Name), short: true,
				run: func() (Result, error) { return rv64Run(k, w) }})
		}
	}
	for _, n := range []int{1, 2, 4} {
		s := spec(machine.Captive, rv64.Port{})
		s.Harts = n // Quantum 0: truly parallel harts
		name := fmt.Sprintf("smp-lcg-x%d", n)
		cs = append(cs, goldenCase{key: rowKey(machine.Captive, "rv64", name), parallel: n > 1,
			run: func() (Result, error) { return runRV64(s, rvSMPKernel(smpIters), name) }})
	}
	return cs
}

// rvSMPKernel is the per-hart SMP workload: an LCG register mix seeded by
// mhartid, 4 instructions per iteration, no memory traffic, so every hart
// executes the same code pages out of the shared physically-indexed cache.
// The x1 row runs it on the uniprocessor dispatcher.
func rvSMPKernel(iters uint64) *rvasm.Program {
	p := rvasm.New(0x1000)
	p.Csrr(5, rv64.CSRMhartid)
	p.Li(10, iters)
	p.Addi(11, 5, 1) // per-hart seed
	p.Li(13, 6364136223846793005)
	p.Li(14, 1442695040888963407)
	p.Label("loop")
	p.Mul(11, 11, 13)
	p.Add(11, 11, 14)
	p.Addi(10, 10, -1)
	p.Bne(10, rvasm.X0, "loop")
	p.Ecall()
	return p
}

// TestModelGolden runs the golden's rows (the -short subset under -short)
// and holds them against testdata/model.golden. It runs after the package's
// sequential tests, so the runs they already made come from the cache.
func TestModelGolden(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := parseGolden(string(data))
	if err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	var cases []goldenCase
	for _, c := range goldenCases() {
		if c.short || !testing.Short() {
			cases = append(cases, c)
		}
	}
	rows := make([]goldenRow, len(cases))
	t.Run("rows", func(t *testing.T) {
		for i, c := range cases {
			i, c := i, c
			t.Run(c.key, func(t *testing.T) {
				t.Parallel()
				res, err := c.run()
				if err != nil {
					t.Fatal(err)
				}
				rows[i] = goldenRow{Key: c.key, Instrs: res.GuestInstrs, Checksum: res.Checksum,
					Cycles: res.Metrics.SimDeciCycles, Parallel: c.parallel}
			})
		}
	})
	if t.Failed() {
		return
	}
	produced := slices.DeleteFunc(rows, func(r goldenRow) bool { return r.Key == "" }) // rows -run skipped
	diffs := compareGolden(golden, produced, !testing.Short())
	for _, d := range diffs {
		t.Error(d)
	}
	if len(diffs) > 0 {
		note := ""
		if testing.Short() {
			note = " (the -short subset; run without -short for the whole golden)"
		}
		t.Logf("the rows this run produced%s, in the golden's format:\n%s", note, formatGolden(produced))
	}
}

// TestGoldenCompareRules pins the gate's rules without running an engine.
func TestGoldenCompareRules(t *testing.T) {
	det := goldenRow{Key: "captive/ga64/w", Instrs: 10, Checksum: 0xab, Cycles: 100}
	par := goldenRow{Key: "captive/rv64/smp", Instrs: 20, Checksum: 0xcd, Parallel: true}
	golden := []goldenRow{det, par}
	moved := func(r goldenRow, move func(*goldenRow)) goldenRow { move(&r); return r }
	cases := []struct {
		name     string
		produced []goldenRow
		full     bool
		want     string // the diffs, joined by "; "
	}{
		{"unchanged", golden, true, ""},
		{"deterministic cycles moved", []goldenRow{moved(det, func(r *goldenRow) { r.Cycles = 101 }), par}, true,
			"captive/ga64/w: deci-cycles 100 → 101"},
		{"parallel cycles moved", []goldenRow{det, moved(par, func(r *goldenRow) { r.Cycles = 999 })}, true, ""},
		{"run mode moved", []goldenRow{det, moved(par, func(r *goldenRow) { r.Parallel = false })}, true,
			"captive/rv64/smp: deci-cycles - → 0"},
		{"deterministic instructions moved", []goldenRow{moved(det, func(r *goldenRow) { r.Instrs = 11 }), par}, true,
			"captive/ga64/w: guest instructions 10 → 11"},
		{"parallel instructions moved", []goldenRow{det, moved(par, func(r *goldenRow) { r.Instrs = 21 })}, true,
			"captive/rv64/smp: guest instructions 20 → 21"},
		{"deterministic checksum moved", []goldenRow{moved(det, func(r *goldenRow) { r.Checksum = 0xac }), par}, true,
			"captive/ga64/w: checksum 0xab → 0xac"},
		{"parallel checksum moved", []goldenRow{det, moved(par, func(r *goldenRow) { r.Checksum = 0xce })}, true,
			"captive/rv64/smp: checksum 0xcd → 0xce"},
		{"produced row missing from the golden", append(slices.Clone(golden), goldenRow{Key: "qemu/ga64/w"}), true,
			"qemu/ga64/w: produced, but not in the golden"},
		{"golden row not produced, full", []goldenRow{det}, true, "captive/rv64/smp: in the golden, but not produced"},
		{"golden row not produced, short", []goldenRow{det}, false, ""},
	}
	for _, c := range cases {
		if got := strings.Join(compareGolden(golden, c.produced, c.full), "; "); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}

	back, err := parseGolden(formatGolden(golden))
	if err != nil || !reflect.DeepEqual(back, golden) {
		t.Errorf("format/parse round trip: got %+v, %v; want %+v", back, err, golden)
	}
	for _, bad := range []string{"k 1 0x2", "k 1 0x2 3 4", "k x 0x2 3", "k 1 0x2 ?", "k 1 0x2 3\nk 1 0x2 3"} {
		if _, err := parseGolden(bad); err == nil {
			t.Errorf("parseGolden(%q): no error", bad)
		}
	}
}
