//go:build !linux

package hvm

import "captive/internal/vx64"

// newPhys returns n bytes of zeroed host physical memory.
func newPhys(n uint64) vx64.PhysMem { return make(vx64.PhysMem, n) }
