package hvm

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"unsafe"
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

// TestNewPhysZeroOnReusedHeap allocates host physical memory over freed,
// dirty heap pages, with a size that ends mid-page, and requires every byte
// to read zero.
func TestNewPhysZeroOnReusedHeap(t *testing.T) {
	const n = 8<<20 + 123
	glo, ghi := freedSlab(n)
	p := newPhys(n)
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

// TestNewOnReusedHeapFaultsNothingIn builds a machine over the heap pages of
// a collected one, returned to the OS, and requires the build to leave the
// resident set about where it was: a machine's memory is faulted in by use,
// not by construction.
func TestNewOnReusedHeapFaultsNothingIn(t *testing.T) {
	cfg := Config{GuestRAMBytes: 64 << 20, CodeCacheBytes: 32 << 20, PTPoolBytes: 4 << 20}
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	debug.FreeOSMemory()
	before := residentBytes(t)
	vm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grew := residentBytes(t) - before
	if n := int64(len(vm.Phys)); grew > n/8 {
		t.Errorf("building a %d MiB machine grew the resident set by %d MiB", n>>20, grew>>20)
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
