package port

import (
	"syscall"
	"unsafe"
)

// mallocgc is the runtime's allocator; needzero false skips its clearing.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// NewRAM returns n bytes of zeroed memory without writing most of them:
// guest RAM for the interpreter, and the whole host physical memory (guest
// RAM first) of a DBT machine. make clears a large object in full when any
// of it reuses freed heap, faulting in every page of a slab whose guest
// touches few; so the slab is taken uncleared and its whole pages handed
// back to the kernel, which maps zero pages on first touch. Only the
// partial last page is cleared by hand; where the slab does not start on a
// kernel page the advice fails and all of it is. The slab stays on the Go
// heap, collected like any other.
func NewRAM(n uint64) RAM {
	if n > 1<<47 {
		return make(RAM, n) // past any heap: make's panic, not a fatal error
	}
	p := unsafe.Slice((*byte)(mallocgc(uintptr(n), nil, false)), n)
	pg := uint64(syscall.Getpagesize())
	whole := n / pg * pg
	if syscall.Madvise(p[:whole], syscall.MADV_DONTNEED) != nil {
		whole = 0
	}
	clear(p[whole:])
	return p
}
