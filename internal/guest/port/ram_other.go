//go:build !linux

package port

// NewRAM returns n bytes of zeroed memory: guest RAM for the interpreter,
// and the whole host physical memory of a DBT machine.
func NewRAM(n uint64) RAM { return make(RAM, n) }
