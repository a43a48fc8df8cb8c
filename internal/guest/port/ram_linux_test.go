package port_test

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"captive/internal/guest/ga64"
	"captive/internal/guest/port"
	"captive/internal/hvm"
	"captive/internal/interp"
	"captive/internal/ssa"
)

// freedSlab allocates n bytes, fills them with 0xFF, drops them and collects
// them, so the next allocation of that size reuses dirty heap pages. It
// returns the slab's address range.
func freedSlab(n int) (lo, hi uintptr) {
	runtime.GC() // the slab takes the lowest free run that fits, as will the next
	g := make([]byte, n)
	for i := range g {
		g[i] = 0xFF
	}
	lo = uintptr(unsafe.Pointer(&g[0]))
	runtime.KeepAlive(g)
	g = nil
	runtime.GC()
	return lo, lo + uintptr(n)
}

// TestNewRAMZeroOnReusedHeap allocates memory over freed, dirty heap pages,
// with a size that ends mid-page, and requires every byte to read zero.
func TestNewRAMZeroOnReusedHeap(t *testing.T) {
	const n = 8<<20 + 123
	glo, ghi := freedSlab(n)
	p := port.NewRAM(n)
	plo := uintptr(unsafe.Pointer(&p[0]))
	if plo >= ghi || plo+n <= glo {
		t.Fatalf("new memory [%#x, %#x) does not reuse the freed slab [%#x, %#x)", plo, plo+n, glo, ghi)
	}
	for i, b := range p {
		if b != 0 {
			t.Fatalf("byte %#x of %#x = %#x, want 0", i, n, b)
		}
	}
}

// TestNewRAMTooLargePanics requires a size no heap can hold (a negative
// RAM size converted to uint64, say) to panic as make does, recoverably,
// rather than end the process in the runtime allocator.
func TestNewRAMTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRAM(2^64-1) returned")
		}
	}()
	port.NewRAM(^uint64(0))
}

// TestNewOnReusedHeapFaultsNothingIn builds a machine over the heap pages of
// a collected one, returned to the OS, and requires the build to leave the
// resident set about where it was: a machine's memory is faulted in by use,
// not by construction. It holds for a DBT host VM and for an interpreter.
func TestNewOnReusedHeapFaultsNothingIn(t *testing.T) {
	mod, err := ga64.Port{}.Module(ssa.O1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		build func(t *testing.T) (machine any, bytes int64)
	}{
		{"hvm", func(t *testing.T) (any, int64) {
			vm, err := hvm.New(hvm.Config{GuestRAMBytes: 64 << 20, CodeCacheBytes: 32 << 20, PTPoolBytes: 4 << 20})
			if err != nil {
				t.Fatal(err)
			}
			return vm, int64(len(vm.Phys))
		}},
		{"interp", func(t *testing.T) (any, int64) {
			m := interp.New(ga64.Port{}, mod, 64<<20)
			return m, int64(len(m.Mem))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.build(t)
			debug.FreeOSMemory()
			before := residentBytes(t)
			m, n := c.build(t)
			if grew := residentBytes(t) - before; grew > n/8 {
				t.Errorf("building a %d MiB machine grew the resident set by %d MiB", n>>20, grew>>20)
			}
			runtime.KeepAlive(m)
		})
	}
}

// residentBytes is this process's resident set (VmRSS).
func residentBytes(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("VmRSS missing from /proc/self/status")
	return 0
}
