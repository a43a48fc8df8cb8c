package core_test

// SMP engine tests: the truly-parallel run mode (one goroutine per hart,
// stop-the-world for shared translation state) and concurrent engine
// construction. These are the -race lane's cross-core coverage — the
// deterministic scheduler's bit-exactness is pinned by the difftest CheckSMP
// lane; here the interesting property is that parallel harts communicating
// through the mutexed device bus and the SMC shootdown protocol are
// race-clean and live.

import (
	"fmt"
	"sync"
	"testing"

	"captive/internal/core"
	"captive/internal/device"
	"captive/internal/guest/ga64"
	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
	"captive/internal/hvm"
)

// IPI mailbox guest-physical registers.
const (
	ipiSetPA   = rv64.DeviceBase + 0x2000 + device.IPISet
	ipiClearPA = rv64.DeviceBase + 0x2000 + device.IPIClear
	ipiPendPA  = rv64.DeviceBase + 0x2000 + device.IPIPend
)

func newRV64SMP(t testing.TB, vcpus int, qemu bool) *core.SMP {
	t.Helper()
	vm, err := hvm.New(hvm.Config{GuestRAMBytes: 8 << 20, CodeCacheBytes: 4 << 20,
		PTPoolBytes: 2 << 20, VCPUs: vcpus})
	if err != nil {
		t.Fatal(err)
	}
	var s *core.SMP
	if qemu {
		s, err = core.NewSMPQEMU(vm, rv64.Port{}, rv64.MustModule())
	} else {
		s, err = core.NewSMP(vm, rv64.Port{}, rv64.MustModule())
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// loadSMP assembles the two-hart program and points every hart at its entry.
func loadSMP(t testing.TB, s *core.SMP, p *rvasm.Program) {
	t.Helper()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VCPU(0).LoadImage(img, p.Org(), p.Org()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < s.N(); i++ {
		s.VCPU(i).SetPC(p.Org())
	}
}

// hartDispatch emits the mhartid entry dispatch: hart 0 falls through,
// hart 1 jumps to "hart1".
func hartDispatch(p *rvasm.Program) {
	p.Csrr(5, rv64.CSRMhartid)
	p.Beq(5, rvasm.X0, "hart0")
	p.Jal(rvasm.X0, "hart1")
	p.Label("hart0")
}

// rvAddi encodes addi rd, rs1, imm — for patching code bytes from the guest.
func rvAddi(rd, rs1 uint32, imm int32) uint64 {
	return uint64(uint32(imm&0xFFF)<<20 | rs1<<15 | rd<<7 | 0x13)
}

// TestSMPParallelIPIHandshake runs two truly-parallel harts that synchronize
// only through the device bus: hart 0 computes 12! and raises
// hart 1's IPI line; hart 1 polls the pending mask over MMIO until the bit
// appears, then acknowledges. Guest RAM stays disjoint per hart, so a clean
// -race run here means the engine's own shared state (cache, clock, bus) is
// properly synchronized.
func TestSMPParallelIPIHandshake(t *testing.T) {
	p := rvasm.New(0x1000)
	hartDispatch(p)
	p.Li(10, 12)
	p.Li(11, 1)
	p.Label("fact")
	p.Mul(11, 11, 10)
	p.Addi(10, 10, -1)
	p.Bne(10, rvasm.X0, "fact")
	p.Li(7, ipiSetPA)
	p.Li(8, 1)
	p.Sd(8, 7, 0)
	p.Ecall()

	p.Label("hart1")
	p.Li(7, ipiPendPA)
	p.Label("poll")
	p.Ld(12, 7, 0)
	p.Beq(12, rvasm.X0, "poll")
	p.Li(8, 1)
	p.Li(9, ipiClearPA)
	p.Sd(8, 9, 0)
	p.Ecall()

	s := newRV64SMP(t, 2, false)
	loadSMP(t, s, p)
	if err := s.RunParallel(4_000_000_000); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if h, code := s.Halted(); !h || code != 0 {
		t.Fatalf("halted=%v code=%#x", h, code)
	}
	if got := s.VCPU(0).Reg(11); got != 479001600 {
		t.Errorf("hart 0: 12! = %d, want 479001600", got)
	}
	if got := s.VCPU(1).Reg(12); got != 1<<1 {
		t.Errorf("hart 1 observed pending mask %#x, want %#x", got, 1<<1)
	}
}

// TestSMPParallelSMCShootdown exercises the stop-the-world protocol under
// true concurrency: hart 1 calls F (alone on its own page) in a loop until
// F's return value changes; hart 0 concurrently patches F's addi immediate.
// The write must fault into the exclusive section, quiesce hart 1
// mid-call-loop, and invalidate hart 1's translation so the new constant is
// observed — all while -race watches the cache and dispatcher state.
func TestSMPParallelSMCShootdown(t *testing.T) {
	p := rvasm.New(0x1000)
	hartDispatch(p)
	p.Li(6, 200) // give hart 1 a head start into its call loop
	p.Label("delay")
	p.Addi(6, 6, -1)
	p.Bne(6, rvasm.X0, "delay")
	p.La(7, "fpatch")
	p.Li(8, rvAddi(13, 0, 0x222))
	p.Sw(8, 7, 0)
	p.Ecall()

	p.Label("hart1")
	p.Li(6, 5_000_000) // liveness ceiling: fail loud, never hang
	p.Li(9, 0x222)
	p.Label("until")
	p.Jal(rvasm.RA, "F")
	p.Beq(13, 9, "got")
	p.Addi(6, 6, -1)
	p.Bne(6, rvasm.X0, "until")
	p.Label("got")
	p.Ecall()

	for p.PC()&0xFFF != 0 {
		p.Nop()
	}
	p.Label("F")
	p.Label("fpatch")
	p.Addi(13, rvasm.X0, 0x111)
	p.Ret()

	s := newRV64SMP(t, 2, false)
	loadSMP(t, s, p)
	if err := s.RunParallel(40_000_000_000); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if h, _ := s.Halted(); !h {
		t.Fatal("machine did not halt")
	}
	if got := s.VCPU(1).Reg(13); got != 0x222 {
		t.Errorf("hart 1 never observed the patched F: x13=%#x, want 0x222", got)
	}
}

// privateCodeProgram sends each hart through its own code: a short counted
// loop, then a chain of 64 blocks no other hart executes, then ecall. Every
// block is translated by the hart that runs it.
func privateCodeProgram() *rvasm.Program {
	p := rvasm.New(0x1000)
	hartDispatch(p)
	privateRun(p, "h0")
	p.Label("hart1")
	privateRun(p, "h1")
	return p
}

func privateRun(p *rvasm.Program, tag string) {
	p.Li(6, 2000)
	p.Label(tag + "loop")
	p.Addi(6, 6, -1)
	p.Bne(6, rvasm.X0, tag+"loop")
	for i := 0; i < 64; i++ {
		next := fmt.Sprintf("%s.%d", tag, i)
		p.Addi(10, 10, 1)
		p.Jal(rvasm.X0, next)
		p.Label(next)
	}
	p.Ecall()
}

// TestSMPStopTheWorldMetrics checks the stop-the-world fields of the
// metrics snapshot. Two truly-parallel harts translating their own code
// stop each other, so both the pause count and the kick-to-park wait are
// positive; the deterministic scheduler and a uniprocessor never stop the
// world and report 0.
func TestSMPStopTheWorldMetrics(t *testing.T) {
	run := func(harts int, quantum uint64) *core.SMP {
		s := newRV64SMP(t, harts, false)
		loadSMP(t, s, privateCodeProgram())
		var err error
		switch {
		case harts == 1:
			err = s.VCPU(0).Run(4_000_000_000)
		case quantum > 0:
			err = s.RunDet(4_000_000_000, quantum)
		default:
			err = s.RunParallel(4_000_000_000)
		}
		if err != nil {
			t.Fatalf("%d harts, quantum %d: %v", harts, quantum, err)
		}
		for i := 0; i < harts; i++ {
			if got := s.VCPU(i).Reg(10); got != 64 {
				t.Errorf("%d harts, quantum %d: hart %d x10 = %d, want 64", harts, quantum, i, got)
			}
		}
		return s
	}
	par := run(2, 0)
	if m := par.Metrics(); m.STWPauses == 0 || m.STWWaitNS <= 0 {
		t.Errorf("RunParallel: stw_pauses %d, stw_wait_ns %d, want both > 0", m.STWPauses, m.STWWaitNS)
	}
	det, uni := run(2, 64), run(1, 0)
	for name, s := range map[string]*core.SMP{"RunDet": det, "uniprocessor": uni} {
		if m := s.Metrics(); m.STWPauses != 0 || m.STWWaitNS != 0 {
			t.Errorf("%s: stw_pauses %d, stw_wait_ns %d, want 0", name, m.STWPauses, m.STWWaitNS)
		}
	}
}

// BenchmarkParallelRoundTrip reports the dispatcher round trip under two
// truly-parallel harts running one shared loop with chaining off, the
// shape of perfbench smp2's hot phase. One op is a RunParallel call of 2M
// deci-cycles per hart; ns/dispatch is the wall time per round trip of one
// hart. RunParallel starts a goroutine per hart, so this is not one of the
// allocation-gated BenchmarkDispatch* benchmarks.
func BenchmarkParallelRoundTrip(b *testing.B) {
	p := rvasm.New(0x1000)
	p.Li(24, 6364136223846793005)
	p.Li(25, 1442695040888963407)
	p.Label("loop") // x22 counts down from 0: the loop never ends
	p.Mul(23, 23, 24)
	p.Add(23, 23, 25)
	p.Addi(22, 22, -1)
	p.Bne(22, rvasm.X0, "loop")
	p.Ecall()
	s := newRV64SMP(b, 2, false)
	loadSMP(b, s, p)
	const slice = 2_000_000
	for i := 0; i < 16; i++ { // warm up until translation stops
		if err := s.RunParallel(slice); err != core.ErrBudget {
			b.Fatalf("warmup: %v", err)
		}
	}
	start := s.Metrics().DispatchLoops
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunParallel(slice); err != core.ErrBudget {
			b.Fatalf("run: %v", err)
		}
	}
	b.StopTimer()
	if n := s.Metrics().DispatchLoops - start; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())*float64(s.N())/float64(n), "ns/dispatch")
	}
}

// TestSMPParallelQEMURefused pins that the QEMU baseline only runs under the
// deterministic scheduler.
func TestSMPParallelQEMURefused(t *testing.T) {
	s := newRV64SMP(t, 2, true)
	if err := s.RunParallel(1_000_000); err == nil {
		t.Fatal("RunParallel on the QEMU baseline should refuse")
	}
}

// TestEngineConstructionConcurrent builds engines for both guest
// architectures and both backends from many goroutines at once and runs a
// short program on each — the -race regression for package-level mutable
// state on the construction path (the module caches, generated-code
// registration, layout computation).
func TestEngineConstructionConcurrent(t *testing.T) {
	prog := func() *rvasm.Program {
		p := rvasm.New(0x1000)
		p.Li(10, 7)
		p.Li(11, 6)
		p.Mul(12, 10, 11)
		p.Ecall()
		return p
	}
	img, err := prog().Assemble()
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vm, err := hvm.New(hvm.Config{GuestRAMBytes: 8 << 20, CodeCacheBytes: 4 << 20, PTPoolBytes: 2 << 20})
			if err != nil {
				errc <- err
				return
			}
			var e *core.Engine
			switch i % 4 {
			case 0:
				e, err = core.New(vm, rv64.Port{}, rv64.MustModule())
			case 1:
				e, err = core.NewQEMU(vm, rv64.Port{}, rv64.MustModule())
			case 2:
				e, err = core.New(vm, ga64.Port{}, ga64.MustModule())
			default:
				e, err = core.NewQEMU(vm, ga64.Port{}, ga64.MustModule())
			}
			if err != nil {
				errc <- err
				return
			}
			if i%4 >= 2 {
				errc <- nil // the GA64 engines only need to construct
				return
			}
			if err := e.LoadImage(img, 0x1000, 0x1000); err != nil {
				errc <- err
				return
			}
			if err := e.Run(1_000_000_000); err != nil {
				errc <- err
				return
			}
			if got := e.Reg(12); got != 42 {
				t.Errorf("goroutine %d: x12=%d, want 42", i, got)
			}
			errc <- nil
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}
}
