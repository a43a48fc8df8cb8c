package interp

import (
	"runtime"
	"testing"

	"captive/internal/guest/ga64"
)

// TestClusterSharesRAM builds a 4-hart cluster and holds what it allocates
// under twice its guest RAM: the harts share one RAM and one device bus.
func TestClusterSharesRAM(t *testing.T) {
	const ramBytes, harts = 64 << 20, 4
	module := ga64.MustModule()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cl := NewCluster(ga64.Port{}, module, ramBytes, harts)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*ramBytes {
		t.Errorf("a %d-hart cluster with %d MiB of RAM allocated %.1f MiB, want under %d MiB",
			harts, ramBytes>>20, float64(got)/(1<<20), 2*ramBytes>>20)
	}
	if &cl.Machines[harts-1].Mem[0] != &cl.Machines[0].Mem[0] || cl.Machines[harts-1].Bus != cl.Machines[0].Bus {
		t.Error("harts do not share guest RAM and the device bus")
	}
}
