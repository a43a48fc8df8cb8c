package captive_test

import (
	"testing"

	"captive"
	"captive/ga64asm"
)

// TestRunBudgetExpiry pins one budget contract on every engine: a guest that
// never halts runs until the budget expires, and Run reports that as a
// not-halted status with no error.
func TestRunBudgetExpiry(t *testing.T) {
	p := ga64asm.New(0x1000)
	p.Label("spin")
	p.B("spin")
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []captive.EngineKind{captive.EngineCaptive, captive.EngineQEMU, captive.EngineInterp} {
		g, err := captive.New(captive.Config{Engine: kind, GuestRAMBytes: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.LoadImage(img, 0x1000, 0x1000); err != nil {
			t.Fatal(err)
		}
		st, err := g.Run(100_000)
		if err != nil || st.Halted {
			t.Errorf("%s: Run = %+v, %v; want not halted, nil error", kind, st, err)
		}
		if g.Stats().GuestInstructions == 0 {
			t.Errorf("%s: the guest never ran", kind)
		}
	}
}
