// Package device implements the emulated guest peripherals. In the paper's
// architecture these live in the KVM-side portion of the hypervisor ("the
// KVM-based portion of the hypervisor also includes software emulations of
// guest architectural devices", §2.3); all three engines route MMIO
// accesses here.
package device

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// UART register offsets (from ga64.UARTBase).
const (
	UARTTx     = 0x00 // write: transmit byte
	UARTStatus = 0x04 // read: bit0 = tx ready (always set), bit1 = rx ready
	UARTRx     = 0x08 // read: next input byte, 0 when empty
)

// UARTStatus bits. The rx-ready bit disambiguates a literal 0x00 input byte
// from an empty receive queue: poll status before reading UARTRx.
const (
	UARTTxReady = 1 << 0
	UARTRxReady = 1 << 1
)

// Timer register offsets (from ga64.TimerBase).
const (
	TimerCount = 0x00 // read: current cycle count
	TimerCmp   = 0x08 // read/write: compare value for the interrupt line
	TimerCtrl  = 0x10 // bit0: interrupt enable
)

// IPI mailbox register offsets (from the ipiOff window base). Writing a
// hart index to IPISet raises that hart's software-interrupt line; writing
// it to IPIClear lowers it; IPIPend reads the pending bitmask. Hart indices
// at or above 64 are ignored.
const (
	IPISet   = 0x00 // write: raise soft IRQ for hart <val>
	IPIClear = 0x08 // write: clear soft IRQ for hart <val>
	IPIPend  = 0x10 // read: pending soft-IRQ bitmask
)

// Bus is the MMIO device bus of the guest machine. It is shared by every
// vCPU of an SMP guest. The interrupt lines every dispatcher round trip
// reads (IRQPending, SoftPending, TimerState) are lock-free: the timer
// compare, the timer enable and the IPI mask are atomics, so parallel harts
// polling their lines take no lock and write nothing. Every write, and
// every other access (the UART, MMIO reads), takes mu; writers merge
// sub-word writes under it and store the whole new value. A uniprocessor
// or deterministic-scheduler run has one goroutine, so the behaviour there
// is bit-identical to a fully locked bus.
type Bus struct {
	mu      sync.Mutex
	uartOut bytes.Buffer
	uartIn  []byte

	timerCmp    atomic.Uint64
	timerEnable atomic.Bool

	// softPend is the per-hart software-interrupt (IPI) line bitmask.
	softPend atomic.Uint64

	// Cycles returns the current virtual time; supplied by the engine.
	Cycles func() uint64
}

// UARTBase-relative, TimerBase-relative and IPI dispatch offsets within the
// device window.
const (
	uartOff  = 0x0000
	timerOff = 0x1000
	ipiOff   = 0x2000
)

// sizeMask returns the value mask of a 1/2/4/8-byte access.
func sizeMask(size uint8) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}

// Read performs an MMIO read at the given offset within the device window.
// Sub-word accesses return the low size bytes of the register.
func (b *Bus) Read(off uint64, size uint8) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var v uint64
	switch off {
	case uartOff + UARTStatus:
		v = UARTTxReady
		if len(b.uartIn) > 0 {
			v |= UARTRxReady
		}
	case uartOff + UARTRx:
		if len(b.uartIn) == 0 {
			return 0
		}
		v = uint64(b.uartIn[0])
		b.uartIn = b.uartIn[1:]
	case timerOff + TimerCount:
		if b.Cycles != nil {
			v = b.Cycles()
		}
	case timerOff + TimerCmp:
		v = b.timerCmp.Load()
	case timerOff + TimerCtrl:
		if b.timerEnable.Load() {
			v = 1
		}
	case ipiOff + IPIPend:
		v = b.softPend.Load()
	}
	return v & sizeMask(size)
}

// Write performs an MMIO write at the given offset within the device window.
// Sub-word accesses merge into the low size bytes of the register.
func (b *Bus) Write(off uint64, size uint8, v uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	mask := sizeMask(size)
	switch off {
	case uartOff + UARTTx:
		b.uartOut.WriteByte(byte(v))
	case timerOff + TimerCmp:
		b.timerCmp.Store(b.timerCmp.Load()&^mask | v&mask)
	case timerOff + TimerCtrl:
		b.timerEnable.Store(v&mask&1 != 0)
	case ipiOff + IPISet:
		if h := v & mask; h < 64 {
			b.softPend.Store(b.softPend.Load() | 1<<h)
		}
	case ipiOff + IPIClear:
		if h := v & mask; h < 64 {
			b.softPend.Store(b.softPend.Load() &^ (1 << h))
		}
	}
}

// Console returns everything the guest has written to the UART.
func (b *Bus) Console() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.uartOut.String()
}

// FeedInput appends bytes to the UART receive queue.
func (b *Bus) FeedInput(p []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.uartIn = append(b.uartIn, p...)
}

// IRQPending reports whether the timer compare has fired. It takes no lock.
func (b *Bus) IRQPending() bool {
	return b.timerEnable.Load() && b.Cycles != nil && b.Cycles() >= b.timerCmp.Load()
}

// SoftPending reports whether the given hart's software-interrupt (IPI)
// line is raised. It takes no lock.
func (b *Bus) SoftPending(hart int) bool {
	return hart >= 0 && hart < 64 && b.softPend.Load()&(1<<hart) != 0
}

// TimerState returns the timer compare value and enable bit, for engines
// that fold the timer deadline into generated code. It takes no lock.
func (b *Bus) TimerState() (cmp uint64, enabled bool) {
	return b.timerCmp.Load(), b.timerEnable.Load()
}
