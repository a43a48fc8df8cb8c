package port

import (
	"encoding/binary"
	"fmt"
)

// RAM is guest physical memory: guest DRAM at guest physical address 0,
// one byte per address. It is the only guest-RAM accessor in the system —
// the reference interpreter owns one, and the DBT engines reach theirs
// through the host VM — so its bound is the one RAM check every engine
// applies. The bound never forms pa+n, so an access near 2^64 is refused
// instead of wrapping past zero.
type RAM []byte

// holds reports whether [pa, pa+n) lies inside r.
func (r RAM) holds(pa, n uint64) bool {
	size := uint64(len(r))
	return pa <= size && n <= size-pa
}

// Read returns the little-endian value of width 1, 2, 4 or 8 bytes at pa;
// ok is false when the access is not wholly inside RAM.
func (r RAM) Read(pa uint64, width uint8) (uint64, bool) {
	if !r.holds(pa, uint64(width)) {
		return 0, false
	}
	switch width {
	case 1:
		return uint64(r[pa]), true
	case 2:
		return uint64(binary.LittleEndian.Uint16(r[pa:])), true
	case 4:
		return uint64(binary.LittleEndian.Uint32(r[pa:])), true
	case 8:
		return binary.LittleEndian.Uint64(r[pa:]), true
	}
	return 0, false
}

// Write stores the low width bytes of v at pa, little-endian (width 1, 2, 4
// or 8); it reports false, storing nothing, when the access is not wholly
// inside RAM.
func (r RAM) Write(pa uint64, width uint8, v uint64) bool {
	if !r.holds(pa, uint64(width)) {
		return false
	}
	switch width {
	case 1:
		r[pa] = uint8(v)
	case 2:
		binary.LittleEndian.PutUint16(r[pa:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(r[pa:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(r[pa:], v)
	default:
		return false
	}
	return true
}

// Read64 reads one 64-bit word: the guest page-table walkers' PhysRead64.
func (r RAM) Read64(pa uint64) (uint64, bool) { return r.Read(pa, 8) }

// Fetch reads one instruction word: ScanBlock's FetchRead.
func (r RAM) Fetch(pa uint64) (uint32, bool) {
	w, ok := r.Read(pa, InstrBytes)
	return uint32(w), ok
}

// Load copies data into RAM at pa (image loading).
func (r RAM) Load(data []byte, pa uint64) error {
	if !r.holds(pa, uint64(len(data))) {
		return fmt.Errorf("guest RAM: %d bytes at %#x exceed %d bytes of RAM", len(data), pa, len(r))
	}
	copy(r[pa:], data)
	return nil
}

// Copy fills dst from RAM starting at pa.
func (r RAM) Copy(dst []byte, pa uint64) error {
	if !r.holds(pa, uint64(len(dst))) {
		return fmt.Errorf("guest RAM: [%#x, +%#x) exceeds %d bytes of RAM", pa, len(dst), len(r))
	}
	copy(dst, r[pa:])
	return nil
}
