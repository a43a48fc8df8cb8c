package hvm

import (
	"testing"

	"captive/internal/guest/ga64"
)

func TestLayout(t *testing.T) {
	vm, err := New(Config{GuestRAMBytes: 64 << 20, CodeCacheBytes: 16 << 20, PTPoolBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	l := vm.Layout
	if l.GuestRAMSize != 64<<20 {
		t.Errorf("ram = %d", l.GuestRAMSize)
	}
	// The Captive area starts above the MMIO window.
	if l.CaptiveBase < uint64(ga64.DeviceBase)+uint64(ga64.DeviceSize) {
		t.Errorf("captive area overlaps devices: %#x", l.CaptiveBase)
	}
	// Regions are ordered and within physical memory.
	if !(l.StatePAOf(0) < l.RegFilePAOf(0) && l.RegFilePAOf(0) < l.StackTopOf(0) &&
		l.StackTopOf(0) <= l.PTPoolPA && l.PTPoolPA < l.CodePA &&
		l.CodePA+l.CodeSize == l.TotalPhys) {
		t.Errorf("layout out of order: %+v", l)
	}
	if uint64(len(vm.Phys)) != l.TotalPhys {
		t.Errorf("phys size %d != %d", len(vm.Phys), l.TotalPhys)
	}
	if len(vm.CPUs) != 1 || vm.CPUs[0].DirectBase != DirectBase {
		t.Error("CPU not configured for the hypervisor environment")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{GuestRAMBytes: 0, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20}); err == nil {
		t.Error("zero RAM must be rejected")
	}
	if _, err := New(Config{GuestRAMBytes: 512 << 20, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20}); err == nil {
		t.Error("RAM over the MMIO window must be rejected")
	}
	if _, err := New(Config{GuestRAMBytes: 1 << 20, CodeCacheBytes: 0, PTPoolBytes: 1 << 20}); err == nil {
		t.Error("tiny code cache must be rejected")
	}
}

func TestGuestImageAndPhysRead(t *testing.T) {
	vm, err := New(Config{GuestRAMBytes: 4 << 20, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.LoadGuestImage([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 0x1000); err != nil {
		t.Fatal(err)
	}
	v, ok := vm.GuestPhysRead64(0x1000)
	if !ok || v != 0x0807060504030201 {
		t.Errorf("read = %#x ok=%v", v, ok)
	}
	if _, ok := vm.GuestPhysRead64(5 << 20); ok {
		t.Error("read beyond guest RAM must fail")
	}
	if err := vm.LoadGuestImage(make([]byte, 1), 4<<20); err == nil {
		t.Error("image beyond RAM must be rejected")
	}
}

func TestMMIODispatch(t *testing.T) {
	vm, err := New(Config{GuestRAMBytes: 4 << 20, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	vm.MMIO(uint64(ga64.UARTBase), true, 4, 'z')
	if vm.Bus.Console() != "z" {
		t.Errorf("console = %q", vm.Bus.Console())
	}
	if vm.MMIO(uint64(ga64.UARTBase)+0x04, false, 4, 0) != 1 {
		t.Error("status read wrong")
	}
}

func TestDirectVA(t *testing.T) {
	if DirectVA(0x1234) != DirectBase+0x1234 {
		t.Error("direct map arithmetic wrong")
	}
	if DirectBase&LowHalfMask != 0 {
		t.Error("direct base must be outside the low half")
	}
}
