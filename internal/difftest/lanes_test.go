package difftest

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// The per-lane tests: every lane of the table replays its committed corpus
// (always, including under -short), sweeps fresh seeds sharded across
// parallel subtests, pins generation to the seed and, for one lane per
// guest plus the SMP lane, sanity-checks that every configuration executes.
// The bodies are shared; only the lane differs.

func TestCorpus(t *testing.T)         { testCorpus(t, User) }
func TestMMUCorpus(t *testing.T)      { testCorpus(t, MMU) }
func TestMMUFaultCorpus(t *testing.T) { testCorpus(t, MMUFault) }
func TestSMCCorpus(t *testing.T)      { testCorpus(t, SMC) }
func TestIRQCorpus(t *testing.T)      { testCorpus(t, IRQ) }
func TestRV64Corpus(t *testing.T)     { testCorpus(t, RV64User) }
func TestRV64SysCorpus(t *testing.T)  { testCorpus(t, RV64Sys) }
func TestRV64IRQCorpus(t *testing.T)  { testCorpus(t, RV64IRQ) }
func TestSMPCorpus(t *testing.T)      { testCorpus(t, SMP) }
func TestTraceCorpus(t *testing.T)    { testCorpus(t, User.Traced()) }
func TestTraceIRQCorpus(t *testing.T) { testCorpus(t, IRQ.Traced()) }

func TestSweep(t *testing.T)         { testSweep(t, User) }
func TestMMUSweep(t *testing.T)      { testSweep(t, MMU) }
func TestMMUFaultSweep(t *testing.T) { testSweep(t, MMUFault) }
func TestSMCSweep(t *testing.T)      { testSweep(t, SMC) }
func TestIRQSweep(t *testing.T)      { testSweep(t, IRQ) }
func TestRV64Sweep(t *testing.T)     { testSweep(t, RV64User) }
func TestRV64SysSweep(t *testing.T)  { testSweep(t, RV64Sys) }
func TestRV64IRQSweep(t *testing.T)  { testSweep(t, RV64IRQ) }
func TestSMPSweep(t *testing.T)      { testSweep(t, SMP) }

func TestGenerateDeterministic(t *testing.T)         { testDeterministic(t, User) }
func TestMMUGenerateDeterministic(t *testing.T)      { testDeterministic(t, MMU) }
func TestMMUFaultGenerateDeterministic(t *testing.T) { testDeterministic(t, MMUFault) }
func TestSMCGenerateDeterministic(t *testing.T)      { testDeterministic(t, SMC) }
func TestRV64GenerateDeterministic(t *testing.T)     { testDeterministic(t, RV64User) }
func TestRV64SysGenerateDeterministic(t *testing.T)  { testDeterministic(t, RV64Sys) }
func TestSMPGenerateDeterministic(t *testing.T)      { testDeterministic(t, SMP) }
func TestGenerateIRQDeterministic(t *testing.T) {
	testDeterministic(t, IRQ)
	testDeterministic(t, RV64IRQ)
}

func TestRunMatrixExecutes(t *testing.T)     { testRunMatrix(t, User) }
func TestRV64RunMatrixExecutes(t *testing.T) { testRunMatrix(t, RV64User) }
func TestSMPRunMatrixExecutes(t *testing.T)  { testRunMatrix(t, SMP) }

// minimizeOnce limits minimization to the first mismatch of the package run:
// a divergence every program shows would otherwise spend minutes reducing
// each failing seed. Every mismatch still fails its test.
var minimizeOnce sync.Once

// check is l.Check, minimizing the first mismatch of the package run.
func check(l *Lane, seed int64, ops int) error {
	err := l.Check(seed, ops)
	var m *Mismatch
	if errors.As(err, &m) {
		minimizeOnce.Do(m.Minimize)
	}
	return err
}

// testCorpus replays the lane's committed regression corpus on every engine
// configuration. Traced replays run every fourth seed under -short.
func testCorpus(t *testing.T, l *Lane) {
	for i, c := range l.Corpus {
		if testing.Short() && l.Trace && i%4 != 0 {
			continue
		}
		if err := check(l, c.Seed, c.Ops); err != nil {
			t.Errorf("%s corpus seed %d (ops %d):\n%v", l.Name, c.Seed, c.Ops, err)
		}
	}
}

// testSweep runs the lane's differential sweep over fresh seeds (its
// -short subset under -short).
func testSweep(t *testing.T, l *Lane) {
	n := l.Sweep.Seeds
	if testing.Short() {
		n = l.Sweep.Short
	}
	sweepShards(t, n, func(i int) error {
		seed, ops := l.Sweep.Base+int64(i), 40+(i%5)*l.Sweep.OpsStep
		if err := check(l, seed, ops); err != nil {
			return fmt.Errorf("%s sweep seed %d (ops %d):\n%w", l.Name, seed, ops, err)
		}
		return nil
	})
}

// testDeterministic pins generation to the seed: the same seed must produce
// the same images byte for byte, or the corpus stops being a corpus.
func testDeterministic(t *testing.T, l *Lane) {
	t.Helper()
	a, err := l.Generate(42, 80)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Generate(42, 80)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Image) != string(b.Image) || string(a.Handler) != string(b.Handler) {
		t.Fatalf("%s generation is not deterministic", l.Name)
	}
	c, err := l.Generate(43, 80)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Image) == string(c.Image) {
		t.Fatalf("different seeds produced identical %s programs", l.Name)
	}
}

// testRunMatrix sanity-checks that each engine configuration actually
// executes a lane program: every hart retires instructions and exits
// cleanly.
func testRunMatrix(t *testing.T, l *Lane) {
	p, err := l.Generate(7, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range append([]EngineID{Golden}, Configs()...) {
		o, err := l.Run(p, id)
		if err != nil {
			t.Fatalf("%s %s: %v", l.Name, id, err)
		}
		if len(o.Harts) != max(l.Harts, 1) {
			t.Fatalf("%s %s: %d hart states", l.Name, id, len(o.Harts))
		}
		for h, st := range o.Harts {
			if st.Instrs == 0 {
				t.Errorf("%s %s: hart %d retired no instructions", l.Name, id, h)
			}
			if st.ExitCode != 0 {
				t.Errorf("%s %s: hart %d exit code %d", l.Name, id, h, st.ExitCode)
			}
		}
	}
}

// checkDirected runs a handcrafted program through the lane's full engine
// matrix, requires bit-identical state everywhere, and returns the golden
// per-hart states for scenario assertions.
func checkDirected(t *testing.T, l *Lane, name string, p *Program) []State {
	t.Helper()
	golden, err := l.Run(p, Golden)
	if err != nil {
		t.Fatalf("%s: golden: %v", name, err)
	}
	for _, id := range Configs() {
		o, err := l.Run(p, id)
		if err != nil {
			t.Fatalf("%s: %s: %v", name, id, err)
		}
		if !o.Equal(golden) {
			t.Fatalf("%s: %s diverges: %s", name, id, golden.Diff(o))
		}
	}
	return golden.Harts
}
