package device

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestUART(t *testing.T) {
	var b Bus
	for _, ch := range []byte("ok!") {
		b.Write(UARTTx, 4, uint64(ch))
	}
	if b.Console() != "ok!" {
		t.Errorf("console = %q", b.Console())
	}
	if b.Read(UARTStatus, 4) != 1 {
		t.Error("uart must always report tx-ready")
	}
	b.FeedInput([]byte{0x41, 0x42})
	if b.Read(UARTRx, 1) != 0x41 || b.Read(UARTRx, 1) != 0x42 || b.Read(UARTRx, 1) != 0 {
		t.Error("rx queue wrong")
	}
}

func TestTimer(t *testing.T) {
	var now uint64 = 100
	b := Bus{Cycles: func() uint64 { return now }}
	if b.Read(0x1000+TimerCount, 8) != 100 {
		t.Error("count wrong")
	}
	b.Write(0x1000+TimerCmp, 8, 150)
	b.Write(0x1000+TimerCtrl, 8, 1)
	if b.IRQPending() {
		t.Error("irq should not be pending yet")
	}
	now = 200
	if !b.IRQPending() {
		t.Error("irq should fire at cmp")
	}
	if b.Read(0x1000+TimerCmp, 8) != 150 || b.Read(0x1000+TimerCtrl, 8) != 1 {
		t.Error("timer registers not readable")
	}
}

func TestUARTRxReadyBit(t *testing.T) {
	var b Bus
	if s := b.Read(UARTStatus, 4); s != UARTTxReady {
		t.Errorf("empty status = %#x, want tx-ready only", s)
	}
	// A literal 0x00 input byte must be distinguishable from an empty
	// queue: rx-ready says so before the read, and drops after.
	b.FeedInput([]byte{0x00})
	if s := b.Read(UARTStatus, 4); s != UARTTxReady|UARTRxReady {
		t.Errorf("status with queued byte = %#x, want tx|rx ready", s)
	}
	if v := b.Read(UARTRx, 1); v != 0 {
		t.Errorf("rx = %#x, want 0x00 byte", v)
	}
	if s := b.Read(UARTStatus, 4); s != UARTTxReady {
		t.Errorf("status after drain = %#x, want tx-ready only", s)
	}
}

func TestAccessSizeMaskMerge(t *testing.T) {
	var b Bus
	// Writes merge into the low size bytes of the register.
	b.Write(0x1000+TimerCmp, 8, 0x1122334455667788)
	b.Write(0x1000+TimerCmp, 4, 0xAAAAAAAACAFEBABE)
	if cmp, _ := b.TimerState(); cmp != 0x11223344CAFEBABE {
		t.Errorf("4-byte merge: cmp = %#x", cmp)
	}
	b.Write(0x1000+TimerCmp, 1, 0xFF00)
	if cmp, _ := b.TimerState(); cmp != 0x11223344CAFEBA00 {
		t.Errorf("1-byte merge: cmp = %#x", cmp)
	}
	b.Write(0x1000+TimerCmp, 2, 0xBEEF)
	if cmp, _ := b.TimerState(); cmp != 0x11223344CAFEBEEF {
		t.Errorf("2-byte merge: cmp = %#x", cmp)
	}
	// Reads return only the low size bytes.
	if v := b.Read(0x1000+TimerCmp, 4); v != 0xCAFEBEEF {
		t.Errorf("4-byte read = %#x", v)
	}
	if v := b.Read(0x1000+TimerCmp, 2); v != 0xBEEF {
		t.Errorf("2-byte read = %#x", v)
	}
	if v := b.Read(0x1000+TimerCmp, 1); v != 0xEF {
		t.Errorf("1-byte read = %#x", v)
	}
	// The enable bit honors the write size: a wide value whose low byte
	// is clear must not enable through a 1-byte write.
	b.Write(0x1000+TimerCtrl, 1, 0x100)
	if _, en := b.TimerState(); en {
		t.Error("1-byte ctrl write of 0x100 must not enable")
	}
	b.Write(0x1000+TimerCtrl, 2, 0x101)
	if _, en := b.TimerState(); !en {
		t.Error("2-byte ctrl write of 0x101 must enable")
	}
}

func TestTimerEdge(t *testing.T) {
	var now uint64
	b := Bus{Cycles: func() uint64 { return now }}
	b.Write(0x1000+TimerCmp, 8, 100)
	b.Write(0x1000+TimerCtrl, 8, 1)
	// The compare is inclusive: Cycles == cmp fires.
	now = 99
	if b.IRQPending() {
		t.Error("pending one cycle early")
	}
	now = 100
	if !b.IRQPending() {
		t.Error("not pending at Cycles == cmp")
	}
	// Level-triggered: the line stays high until cmp moves or the timer
	// is disabled — there is no edge latch to clear.
	now = 5000
	if !b.IRQPending() {
		t.Error("level dropped without a register write")
	}
	b.Write(0x1000+TimerCmp, 8, 6000)
	if b.IRQPending() {
		t.Error("line still high after cmp moved past now")
	}
	b.Write(0x1000+TimerCmp, 8, 10)
	if !b.IRQPending() {
		t.Error("compare written in the past must raise the line")
	}
	b.Write(0x1000+TimerCtrl, 8, 0)
	if b.IRQPending() {
		t.Error("disabled timer must not assert the line")
	}
	// Enable-after-expiry: arming an already-elapsed compare fires
	// immediately on enable.
	b.Write(0x1000+TimerCtrl, 8, 1)
	if !b.IRQPending() {
		t.Error("enable after expiry must assert the line")
	}
}

// TestLineReadsLockFree pins that the interrupt-line reads every dispatcher
// round trip makes take no lock: with the bus mutex held, IRQPending,
// SoftPending and TimerState must still return. A locked read deadlocks,
// which the timeout reports.
func TestLineReadsLockFree(t *testing.T) {
	b := Bus{Cycles: func() uint64 { return 500 }}
	b.Write(0x1000+TimerCmp, 8, 400)
	b.Write(0x1000+TimerCtrl, 8, 1)
	b.Write(0x2000+IPISet, 8, 3)
	b.mu.Lock()
	defer b.mu.Unlock()
	done := make(chan [3]bool, 1)
	go func() {
		cmp, en := b.TimerState()
		done <- [3]bool{b.IRQPending(), b.SoftPending(3), cmp == 400 && en}
	}()
	select {
	case got := <-done:
		if got != [3]bool{true, true, true} {
			t.Errorf("irq, soft(3), timer state = %v, want all true", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a line read blocked on the bus mutex")
	}
}

// TestLinesConcurrentCoherent has per-hart goroutines raise and clear their
// own IPI bits while a writer rewrites the timer compare (whole and
// sub-word) and enable, and readers poll every line. Writes to different
// bits of one register must not lose each other: at the end every bit and
// register equals its last write. The race lane runs it under -race.
func TestLinesConcurrentCoherent(t *testing.T) {
	const harts, rounds = 8, 20000
	b := Bus{Cycles: func() uint64 { return ^uint64(0) }}
	var writers, readers sync.WaitGroup
	start, stop := make(chan struct{}), make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for h := 0; h < harts; h++ {
					b.SoftPending(h)
				}
				b.IRQPending()
				b.TimerState()
				runtime.Gosched() // leave the CPUs to the writers
			}
		}()
	}
	for h := 0; h < harts; h++ {
		writers.Add(1)
		go func(h int) {
			defer writers.Done()
			<-start
			for i := 0; i < rounds; i++ {
				b.Write(0x2000+IPISet, 8, uint64(h))
				if !b.SoftPending(h) {
					t.Errorf("hart %d: own IPI bit lost after set", h)
					return
				}
				b.Write(0x2000+IPIClear, 8, uint64(h))
				if b.SoftPending(h) {
					t.Errorf("hart %d: own IPI bit set after clear", h)
					return
				}
			}
			// Odd harts end raised, even harts cleared.
			if h%2 == 1 {
				b.Write(0x2000+IPISet, 4, uint64(h))
			}
		}(h)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		<-start
		for i := uint64(0); i < rounds; i++ {
			b.Write(0x1000+TimerCmp, 8, i<<32|i)
			b.Write(0x1000+TimerCmp, 2, 0xBEEF)
			b.Write(0x1000+TimerCtrl, 1, i&1)
		}
		b.Write(0x1000+TimerCmp, 8, 0x1122334455667788)
		b.Write(0x1000+TimerCmp, 4, 0xCAFEBABE)
		b.Write(0x1000+TimerCmp, 1, 0x11)
		b.Write(0x1000+TimerCtrl, 8, 1)
	}()
	close(start)
	writers.Wait()
	close(stop)
	readers.Wait()
	for h := 0; h < harts; h++ {
		if got, want := b.SoftPending(h), h%2 == 1; got != want {
			t.Errorf("hart %d line = %v, want %v", h, got, want)
		}
	}
	if got := b.Read(0x2000+IPIPend, 8); got != 0xAA {
		t.Errorf("pending mask = %#x, want 0xaa", got)
	}
	if cmp, en := b.TimerState(); cmp != 0x11223344CAFEBA11 || !en {
		t.Errorf("timer = %#x enabled=%v, want 0x11223344cafeba11 enabled", cmp, en)
	}
	if !b.IRQPending() {
		t.Error("timer line low with cmp below Cycles and the timer enabled")
	}
}
