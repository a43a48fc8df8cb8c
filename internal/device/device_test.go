package device

import "testing"

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
	if b.TimerCmpVal != 0x11223344CAFEBABE {
		t.Errorf("4-byte merge: cmp = %#x", b.TimerCmpVal)
	}
	b.Write(0x1000+TimerCmp, 1, 0xFF00)
	if b.TimerCmpVal != 0x11223344CAFEBA00 {
		t.Errorf("1-byte merge: cmp = %#x", b.TimerCmpVal)
	}
	b.Write(0x1000+TimerCmp, 2, 0xBEEF)
	if b.TimerCmpVal != 0x11223344CAFEBEEF {
		t.Errorf("2-byte merge: cmp = %#x", b.TimerCmpVal)
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
	if b.TimerEnable {
		t.Error("1-byte ctrl write of 0x100 must not enable")
	}
	b.Write(0x1000+TimerCtrl, 2, 0x101)
	if !b.TimerEnable {
		t.Error("2-byte ctrl write of 0x101 must enable")
	}
}

func TestTimerEdge(t *testing.T) {
	var now uint64
	b := Bus{Cycles: func() uint64 { return now }}
	b.Write(0x1000+TimerCmp, 8, 100)
	b.Write(0x1000+TimerCtrl, 8, 1)
	// The compare is inclusive: Cycles == TimerCmpVal fires.
	now = 99
	if b.IRQPending() {
		t.Error("pending one cycle early")
	}
	now = 100
	if !b.IRQPending() {
		t.Error("not pending at Cycles == TimerCmpVal")
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
