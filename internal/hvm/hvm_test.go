package hvm

import "testing"

func TestLayout(t *testing.T) {
	cfg := Config{GuestRAMBytes: 64<<20 + 0x800, CodeCacheBytes: 16 << 20, PTPoolBytes: 4 << 20}
	vm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := vm.Layout
	if l.GuestRAMSize != 64<<20+0x800 {
		t.Errorf("ram = %d", l.GuestRAMSize)
	}
	// The Captive area starts at least the guard above guest RAM.
	if l.CaptiveBase < l.GuestRAMSize+guardSize {
		t.Errorf("captive area %#x within the guard above guest RAM %#x", l.CaptiveBase, l.GuestRAMSize)
	}
	// Regions are ordered and within physical memory.
	if !(l.StatePAOf(0) < l.RegFilePAOf(0) && l.RegFilePAOf(0) < l.StackTopOf(0) &&
		l.StackTopOf(0) < l.SoftTLBOf(0) && l.SoftTLBOf(0) < l.StatePAOf(1) &&
		l.StatePAOf(1) <= l.PTPoolPA && l.PTPoolPA < l.CodePA &&
		l.CodePA+l.CodeSize == l.TotalPhys) {
		t.Errorf("layout out of order: %+v", l)
	}
	if uint64(len(vm.Phys)) != l.TotalPhys {
		t.Errorf("phys size %d != %d", len(vm.Phys), l.TotalPhys)
	}
	if uint64(len(vm.RAM)) != l.GuestRAMSize || cap(vm.RAM) != len(vm.RAM) || &vm.RAM[0] != &vm.Phys[0] {
		t.Errorf("RAM is not Phys[:%#x] capped: len %#x cap %#x", l.GuestRAMSize, len(vm.RAM), cap(vm.RAM))
	}
	if len(vm.CPUs) != 1 || vm.CPUs[0].DirectBase != DirectBase {
		t.Error("CPU not configured for the hypervisor environment")
	}
	// Two vCPUs: the same formula, one more per-vCPU slice before the pool.
	cfg.VCPUs = 2
	vm2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l2 := vm2.Layout
	if l2.CaptiveBase != l.CaptiveBase || l2.PTPoolPA != l.PTPoolPA+cpuStride || l2.PTPoolPA != l2.StatePAOf(2) {
		t.Errorf("two-vCPU layout departs from the one-vCPU formula: %+v vs %+v", l2, l)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{GuestRAMBytes: 0, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20}); err == nil {
		t.Error("zero RAM must be rejected")
	}
	if _, err := New(Config{GuestRAMBytes: 512 << 20, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20}); err == nil {
		t.Error("RAM over 256 MiB must be rejected")
	}
	if _, err := New(Config{GuestRAMBytes: 1 << 20, CodeCacheBytes: 0, PTPoolBytes: 1 << 20}); err == nil {
		t.Error("tiny code cache must be rejected")
	}
	if _, err := New(Config{GuestRAMBytes: 1 << 20, CodeCacheBytes: 1<<30 + 1, PTPoolBytes: 1 << 20}); err == nil {
		t.Error("code cache over 1 GiB must be rejected")
	}
	if _, err := New(Config{GuestRAMBytes: 1 << 20, CodeCacheBytes: 1 << 20, PTPoolBytes: 1<<30 + 1}); err == nil {
		t.Error("PT pool over 1 GiB must be rejected")
	}
}

func TestGuestImageAndPhysRead(t *testing.T) {
	vm, err := New(Config{GuestRAMBytes: 4 << 20, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.RAM.Load([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 0x1000); err != nil {
		t.Fatal(err)
	}
	v, ok := vm.RAM.Read64(0x1000)
	if !ok || v != 0x0807060504030201 || vm.Phys.R64(0x1000) != v {
		t.Errorf("read = %#x ok=%v", v, ok)
	}
	if _, ok := vm.RAM.Read64(4<<20 - 4); ok {
		t.Error("read beyond guest RAM must fail")
	}
	if err := vm.RAM.Load(make([]byte, 1), 4<<20); err == nil {
		t.Error("image beyond RAM must be rejected")
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
