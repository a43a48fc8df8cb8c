package difftest

import (
	"encoding/binary"
	"strings"
	"testing"

	"captive/internal/machine"
	"captive/internal/metrics"
	"captive/internal/ssa"
)

// TestMinimizeShrinks drives the NOP-replacement reduction loop with a
// synthetic failure predicate: the "bug" triggers whenever two specific
// marker words are both present. The minimizer must NOP out everything
// else and keep exactly the two markers.
func TestMinimizeShrinks(t *testing.T) {
	const markerA, markerB = 0xAAAA0001, 0xBBBB0002
	words := make([]uint32, 64)
	for i := range words {
		words[i] = 0x11110000 + uint32(i) // irrelevant filler
	}
	words[13] = markerA
	words[47] = markerB
	stillFails := func(ws []uint32) bool {
		var a, b bool
		for _, w := range ws {
			a = a || w == markerA
			b = b || w == markerB
		}
		return a && b
	}
	nop := nopWord(false)
	out := minimizeWords(words, nop, stillFails)
	if len(out) != 64 {
		t.Fatalf("minimizer changed program length: %d", len(out))
	}
	if countLive(out, nop) != 2 || out[13] != markerA || out[47] != markerB {
		t.Fatalf("minimizer kept %d live words (want exactly the 2 markers): %#x", countLive(out, nop), out)
	}
}

// TestMinimizeKeepsNonFailing verifies the guard path: a program whose
// predicate does not fail comes back byte-identical (no spurious reduction
// of an unreproducible report).
func TestMinimizeKeepsNonFailing(t *testing.T) {
	p, err := Generate(99, 80)
	if err != nil {
		t.Fatal(err)
	}
	words := User.Minimize(p, EngineID{Kind: machine.Captive, Level: ssa.O4})
	if len(words) != len(p.Image)/4 {
		t.Fatalf("minimizer changed program length: %d words vs %d", len(words), len(p.Image)/4)
	}
	for i, w := range words {
		if binary.LittleEndian.Uint32(p.Image[4*i:]) != w {
			t.Fatal("minimizer mutated a non-failing program")
		}
	}
}

// TestStateDiffReporting checks the human-readable diff output names the
// diverging register.
func TestStateDiffReporting(t *testing.T) {
	a := State{Regs: make([]byte, 769), Data: []byte{0}, Instrs: 5}
	b := State{Regs: make([]byte, 769), Data: []byte{0}, Instrs: 5}
	binary.LittleEndian.PutUint64(b.Regs[3*8:], 0xDEAD)
	d := a.Diff(b)
	if d == "" || !strings.Contains(d, "X3") {
		t.Errorf("diff = %q, want mention of X3", d)
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal is wrong")
	}
	// An NZCV-only divergence must be reported by name, not as padding.
	c := State{Regs: make([]byte, 776), Data: []byte{0}, Instrs: 5}
	e := State{Regs: make([]byte, 776), Data: []byte{0}, Instrs: 5}
	e.Regs[regLayout().nzcv] = 0b1010
	if d := c.Diff(e); !strings.Contains(d, "NZCV") {
		t.Errorf("diff = %q, want mention of NZCV", d)
	}
}

// TestOutcomeComparesConsole checks that two runs ending in identical
// state but writing different UART output diverge, and that the diff
// names the console.
func TestOutcomeComparesConsole(t *testing.T) {
	st := State{Regs: make([]byte, 769), Data: []byte{0}, Instrs: 5}
	a := Outcome{Harts: []State{st}}
	b := Outcome{Harts: []State{st}, Console: "A"}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal ignores the console")
	}
	if d := a.Diff(b); !strings.Contains(d, "console") {
		t.Errorf("diff = %q, want mention of the console", d)
	}
}

// TestOutcomeComparesCounters checks that two runs ending in identical
// state and console output but disagreeing on a delivery counter diverge,
// and that the diff names the counter.
func TestOutcomeComparesCounters(t *testing.T) {
	st := State{Regs: make([]byte, 769), Data: []byte{0}, Instrs: 5}
	a := Outcome{Harts: []State{st}, Metrics: metrics.Snapshot{MMIOEmulations: 2, VirtualTime: 9}}
	for name, m := range map[string]metrics.Snapshot{
		"guest faults":    {GuestFaults: 1, MMIOEmulations: 2, VirtualTime: 9},
		"IRQs delivered":  {IRQsDelivered: 1, MMIOEmulations: 2, VirtualTime: 9},
		"MMIO emulations": {VirtualTime: 9},
		"virtual time":    {MMIOEmulations: 2, VirtualTime: 10},
	} {
		b := Outcome{Harts: []State{st}, Metrics: m}
		if !a.Equal(a) || a.Equal(b) {
			t.Errorf("Equal ignores %s", name)
		}
		if d := a.Diff(b); !strings.Contains(d, name) {
			t.Errorf("diff = %q, want mention of %s", d, name)
		}
	}
}

// TestSVCRoundTrip pins the exception path: a program that is mostly SVCs
// must agree across engines and retire the handler's instructions.
func TestSVCRoundTrip(t *testing.T) {
	p, err := Generate(5, 30)
	if err != nil {
		t.Fatal(err)
	}
	g, err := User.Run(p, Golden)
	if err != nil {
		t.Fatal(err)
	}
	st, err := User.Run(p, EngineID{Kind: machine.Captive, Level: ssa.O4})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(g) {
		t.Fatalf("SVC program diverged: %s", g.Diff(st))
	}
}
