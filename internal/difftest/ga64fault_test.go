package difftest

import (
	"testing"

	"captive/internal/machine"
	"captive/internal/ssa"
)

// TestMMUFaultActuallyFaults guards the lane against silently degenerating:
// a corpus-sized program must take guest exceptions beyond its SVC
// round-trips (i.e. real aborts), or the fault pages have stopped faulting.
func TestMMUFaultActuallyFaults(t *testing.T) {
	p, err := GenerateMMUFault(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	o, err := MMUFault.Run(p, EngineID{Kind: machine.Captive, Level: ssa.O4})
	if err != nil {
		t.Fatal(err)
	}
	if o.Harts[0].ExitCode != 0 {
		t.Fatalf("exit code %d", o.Harts[0].ExitCode)
	}
	if o.Metrics.GuestFaults == 0 {
		t.Fatal("no guest faults were injected — the fault pages are not faulting")
	}
}
