package port

// The shared access rules. An engine that checked a guest access in an order
// of its own would let a guest reach through a mapping the others refuse (an
// EL0 store through a kernel-only mapping of the UART, emulated where the
// others abort). So every fetch or data access an engine resolves — the
// interpreter's, the Captive engine's host-fault and iTLB-miss paths and the
// QEMU baseline's softmmu fill — is classified here, in one order:
//
//  1. walk: no translation is a translation fault;
//  2. permission at the current level: a fetch needs Exec (and User at
//     level 0), a data access WalkResult.CheckAccess;
//  3. a store crossing a page boundary: the last byte's page must be
//     translated and writable too, the fault naming the last byte (the data
//     still goes physically contiguous from the base);
//  4. device: a data access into the MMIO window is emulated;
//  5. RAM bound: any other data access must lie wholly inside guest RAM, or
//     it is a translation fault.
//
// A fetch stops after step 2: block formation (ScanBlock) decides what an
// unreadable word does.

// Access is the verdict on one guest access.
type Access struct {
	Walk   WalkResult // the walk of the access's base address
	Walks  uint64     // page-table walks performed (the DBT engines charge each)
	Device bool       // a permitted data access into the MMIO window at Walk.PA
	Abort  bool       // the access faults: inject Exc
	Exc    Exception
}

func (a Access) fault(kind ExcKind, translation, write bool, addr, pc uint64) Access {
	a.Abort = true
	a.Exc = Exception{Kind: kind, Translation: translation, Write: write, Addr: addr, PC: pc}
	return a
}

// Space is one hart's guest address space: its system state's translation
// over guest RAM, and the port's device window.
type Space struct {
	sys   Sys
	guest Port
	ram   RAM
	read  PhysRead64 // ram.Read64, bound once so a walk allocates nothing
}

// NewSpace returns the address space sys translates over ram for guest g.
func NewSpace(g Port, sys Sys, ram RAM) Space {
	return Space{sys: sys, guest: g, ram: ram, read: ram.Read64}
}

// Fetch classifies the instruction fetch at pc.
func (s *Space) Fetch(pc uint64) Access {
	a := Access{Walk: s.sys.Walk(s.read, pc), Walks: 1}
	if w := a.Walk; !w.OK || !w.Exec || (s.sys.EL() == 0 && !w.User) {
		return a.fault(ExcInsnAbort, !w.OK, false, pc, pc)
	}
	return a
}

// Data classifies a data access of width bytes at va by the instruction at
// pc. The Captive engine's host MMU resolves one page per fault, so its
// host-fault path classifies the faulting byte (width 1).
func (s *Space) Data(va uint64, width uint8, write bool, pc uint64) Access {
	a := Access{Walk: s.sys.Walk(s.read, va), Walks: 1}
	w, el := a.Walk, s.sys.EL()
	if !w.CheckAccess(write, el) {
		return a.fault(ExcDataAbort, !w.OK, write, va, pc)
	}
	if end := va + uint64(width) - 1; write && width > 1 && (va^end)>>12 != 0 {
		a.Walks++
		if we := s.sys.Walk(s.read, end); !we.CheckAccess(true, el) {
			return a.fault(ExcDataAbort, !we.OK, true, end, pc)
		}
	}
	if a.Device = s.guest.IsDevice(w.PA); !a.Device && !s.ram.holds(w.PA, uint64(width)) {
		return a.fault(ExcDataAbort, true, write, va, pc)
	}
	return a
}
