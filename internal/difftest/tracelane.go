package difftest

import (
	"fmt"

	"captive/internal/trace"
)

// The trace flag of any lane (Lane.Traced): differential testing of the
// *event streams* the introspection layer emits, not just final state. The
// comparable kinds (trace.ComparableKinds: block entries, interrupt
// deliveries, guest exceptions, device accesses) are architecturally
// determined — every engine must produce the identical ordered sequence of
// (kind, arg, virtual-time, pc, addr) tuples for the same program, because
// block formation, injection boundaries, exception points and device
// accesses are all part of the shared model. A traced lane also asserts that running *with* tracing
// attached leaves the final architectural state bit-identical to the
// untraced golden run: observation must not perturb.

// DiffEvents describes the first difference between two ordered event
// streams ("" when identical).
func DiffEvents(golden, got []trace.Event) string {
	n := len(golden)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if golden[i] != got[i] {
			return fmt.Sprintf("event %d: golden %s vs %s", i, golden[i], got[i])
		}
	}
	if len(golden) != len(got) {
		return fmt.Sprintf("stream length %d vs %d (first %d events agree)", len(golden), len(got), n)
	}
	return ""
}
