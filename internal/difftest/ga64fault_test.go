package difftest

import (
	"testing"

	"captive/internal/guest/ga64"
	gasm "captive/internal/guest/ga64/asm"
	"captive/internal/machine"
	"captive/internal/ssa"
)

// TestMMUFaultActuallyFaults guards the lane against silently degenerating:
// a corpus-sized program must take guest exceptions beyond its SVC
// round-trips (i.e. real aborts), or the fault pages have stopped faulting.
func TestMMUFaultActuallyFaults(t *testing.T) {
	p, err := GenerateMMUFault(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	o, err := MMUFault.Run(p, EngineID{Kind: machine.Captive, Level: ssa.O4})
	if err != nil {
		t.Fatal(err)
	}
	if o.Harts[0].ExitCode != 0 {
		t.Fatalf("exit code %d", o.Harts[0].ExitCode)
	}
	if o.Metrics.GuestFaults == 0 {
		t.Fatal("no guest faults were injected — the fault pages are not faulting")
	}
}

// el0KernelOnlyAccess builds an EL0 program that stores 'A' and then loads
// through a kernel-only 4 KiB mapping of physical page pa at FaultKernPage,
// under the fault lane's identity tables and abort-folding handler.
func el0KernelOnlyAccess(t *testing.T, pa uint64) *Program {
	t.Helper()
	p := gasm.New(Org)
	store := func(addr, val uint64) {
		p.MovI(2, val)
		p.MovI(3, addr)
		p.Str(2, 3, 0)
	}
	ptr := uint64(ga64.PTEValid | ga64.PTEWrite | ga64.PTEUser)
	store(mmuL3, mmuL2|ptr)
	store(mmuL2, mmuL1|ptr)
	for i := uint64(0); i < 4; i++ {
		store(mmuL1+i*8, i*0x200000|ptr|ga64.PTELarge)
	}
	store(mmuL1+4*8, faultL0|ptr)
	store(faultL0+1*8, pa|ga64.PTEValid|ga64.PTEWrite) // FaultKernPage; no user bit
	p.MovI(2, HandlerBase)
	p.Msr(ga64.SysVBAR, 2)
	p.MovI(faultSigReg, 0)
	p.MovI(2, mmuL3)
	p.Msr(ga64.SysTTBR0, 2)
	p.MovI(2, ga64.SCTLRMmuEnable)
	p.Msr(ga64.SysSCTLR, 2)
	p.MovI(2, 0) // SPSR: EL0
	p.Msr(ga64.SysSPSR, 2)
	p.MovI(2, MMUEntry)
	p.Msr(ga64.SysELR, 2)
	p.Eret()
	for p.PC() < MMUEntry {
		p.Nop()
	}
	p.MovI(4, 'A')
	p.MovI(5, FaultKernPage)
	p.Str(4, 5, 0)
	p.Ldr(6, 5, 0)
	p.Hlt(0)
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	himg, err := faultHandler()
	if err != nil {
		t.Fatal(err)
	}
	return &Program{Image: img, Handler: himg}
}

// TestEL0KernelOnlyMappingAborts pins the order of the access rules: an
// EL0 access through a kernel-only mapping is a permission fault whatever
// the page behind it is — the UART's page (where a device check made ahead
// of the permission check would emulate the store and print) or a page
// past guest RAM (where a RAM-bound check made ahead of it would report a
// translation fault). The store and the load both abort, identically on
// every engine, and the console stays empty.
func TestEL0KernelOnlyMappingAborts(t *testing.T) {
	syndrome := func(write bool) uint64 {
		return uint64(ga64.AbortEC(false, 0))<<26 | uint64(ga64.AbortISS(false, write))
	}
	fold := func(sig, esr uint64) uint64 { return sig<<1 + esr + FaultKernPage }
	want := fold(fold(0, syndrome(true)), syndrome(false))
	for _, c := range []struct {
		name string
		pa   uint64
	}{
		{"uart", ga64.UARTBase},
		{"past-ram", 0x0F000000},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := checkDirected(t, MMUFault, c.name, el0KernelOnlyAccess(t, c.pa))[0]
			if sig := leUint64(st.Regs[regLayout().x+8*faultSigReg:]); sig != want {
				t.Errorf("X25 = %#x, want %#x (two EL0 permission faults at %#x)", sig, want, uint64(FaultKernPage))
			}
		})
	}
}
