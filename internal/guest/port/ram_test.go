package port

import (
	"fmt"
	"testing"
)

// TestRAMBound holds RAM's one bound for every access width: an access
// ending at the last byte succeeds, one byte further is refused, and an
// address near 2^64 — where pa+width wraps past zero — is refused without a
// panic.
func TestRAMBound(t *testing.T) {
	const size = 64
	for _, width := range []uint8{1, 2, 4, 8} {
		r := make(RAM, size)
		w := uint64(width)
		last := uint64(size) - w
		for _, c := range []struct {
			pa uint64
			ok bool
		}{
			{last, true},
			{last + 1, false},
			{size, false},
			{-w, false}, // 2^64 - width: pa+width wraps to 0
			{^uint64(0), false},
		} {
			name := fmt.Sprintf("width %d at %#x", width, c.pa)
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s: panicked: %v", name, p)
					}
				}()
				want := uint64(0x0807060504030201) & (1<<(8*w) - 1)
				if ok := r.Write(c.pa, width, 0x0807060504030201); ok != c.ok {
					t.Errorf("%s: Write ok = %v, want %v", name, ok, c.ok)
				}
				if v, ok := r.Read(c.pa, width); ok != c.ok || (ok && v != want) {
					t.Errorf("%s: Read = %#x, %v, want %#x, %v", name, v, ok, want, c.ok)
				}
				buf := make([]byte, width)
				if err := r.Load(buf, c.pa); (err == nil) != c.ok {
					t.Errorf("%s: Load err = %v, want ok %v", name, err, c.ok)
				}
				if err := r.Copy(buf, c.pa); (err == nil) != c.ok {
					t.Errorf("%s: Copy err = %v, want ok %v", name, err, c.ok)
				}
			}()
		}
	}
}
