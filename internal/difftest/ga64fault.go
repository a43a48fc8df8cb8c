package difftest

// The GA64 EL0 paging-*fault* lane — the ROADMAP item that was blocked on
// "fault-aware instruction accounting in internal/interp": generated EL0
// programs running under translation whose construct stream includes
// directed accesses to a read-only page, a kernel-only page and an unmapped
// page. Those accesses abort *mid-block*; the engines charged the whole
// translated block at entry, so only a golden model with the same
// block-granular scheme (the unified interp.Machine) retires bit-identical
// counts. The EL1 handler records each abort's syndrome (folding ESR and
// FAR into X25), skips the faulting instruction through ELR, and bounces
// SVCs back untouched — exercising the engines' guest-exception paths
// (Captive's host-fault reconstruction of §3.5, the baseline's softmmu slow
// path) on every seed.

import (
	"fmt"
	"math/rand"

	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
)

// Fault-lane layout: the identity tables of the MMU lane, plus one level-0
// table mapping three directed 4 KiB pages above the identity-mapped 8 MiB
// (L1 index 4). Backing frames sit in RAM above the probed windows and
// below the page tables.
const (
	faultL0 = 0x703000 // level-0 table with the directed fault pages

	FaultROPage   = 0x800000 // read-only (user): stores abort, loads succeed
	FaultKernPage = 0x801000 // kernel-only: every EL0 access aborts
	FaultUnmapped = 0x802000 // no mapping: every access aborts

	faultROPA   = 0x7F0000 // backing frame of FaultROPage (stays zero)
	faultKernPA = 0x7F1000 // backing frame of FaultKernPage
)

// faultSigReg accumulates the abort signature in the handler (shifted fold
// of ESR and FAR). It lies in the destination range, so body constructs may
// overwrite it — deterministically, like every other register.
const faultSigReg = 25

// GenerateMMUFault builds a random EL0 paging-fault GA64 program: the MMU
// lane's EL1 prologue extended with the directed fault pages, a lower-EL
// vector that distinguishes SVCs from aborts (aborts are recorded and
// skipped; SVCs return to the next instruction as the architecture already
// arranged), and a body mixing the EL0 construct set with directed fault
// accesses.
func GenerateMMUFault(seed int64, ops int) (*Program, error) {
	rng := rand.New(rand.NewSource(seed))
	p := asm.New(Org)
	g := &generator{rng: rng, p: p, el0: true,
		faultVAs: []uint64{FaultROPage, FaultKernPage, FaultUnmapped}}

	// Page tables (X2/X3 scratch; reseeded by the prologue below): the MMU
	// lane's 2 MiB identity mapping plus the directed-fault level-0 table.
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
	store(mmuL1+4*8, faultL0|ptr) // VA [8 MiB, 10 MiB) -> directed pages
	store(faultL0+0*8, faultROPA|ga64.PTEValid|ga64.PTEUser)
	store(faultL0+1*8, faultKernPA|ga64.PTEValid|ga64.PTEWrite)
	// faultL0[2] (FaultUnmapped) stays zero: no valid bit.

	// Registers, VBAR and flags (the user lane's prologue), then clear the
	// signature accumulator so its folds are seed-deterministic.
	g.prologue()
	p.MovI(faultSigReg, 0)

	// Enable translation and drop to EL0 at the fixed entry point.
	p.MovI(2, mmuL3)
	p.Msr(ga64.SysTTBR0, 2)
	p.MovI(2, ga64.SCTLRMmuEnable)
	p.Msr(ga64.SysSCTLR, 2)
	p.MovI(2, 0) // SPSR: EL0, clear flags
	p.Msr(ga64.SysSPSR, 2)
	p.MovI(2, MMUEntry)
	p.Msr(ga64.SysELR, 2)
	p.MovI(2, rng.Uint64()>>(uint(rng.Intn(5))*13)) // reseed the scratch
	p.Eret()
	if p.PC() > MMUEntry {
		return nil, fmt.Errorf("difftest: fault-lane prologue (%#x) overran the fixed EL0 entry %#x", p.PC(), uint64(MMUEntry))
	}
	for p.PC() < MMUEntry {
		p.Nop() // never executed: padding up to the eret target
	}

	for i := 0; i < ops; i++ {
		g.construct()
	}
	p.Hlt(0)
	g.epilogue()

	img, err := p.Assemble()
	if err != nil {
		return nil, err
	}

	// Exception vectors. Sync-same (VBAR+0): the EL1 prologue never traps —
	// a bare eret. Sync-lower (VBAR+0x100): SVCs eret as-is (ELR already
	// points past the svc); aborts fold ESR and FAR into the signature
	// register and advance ELR past the faulting instruction. NZCV is
	// restored from SPSR by eret, so the handler's compare is invisible to
	// EL0 state.
	h := asm.New(HandlerBase)
	h.Eret()
	for h.PC() < HandlerBase+ga64.VecSyncLower {
		h.Nop()
	}
	h.Mrs(2, ga64.SysESR)
	h.Lsr(3, 2, 26) // exception class
	h.CmpI(3, ga64.ECSVC)
	h.BCond(ga64.CondEQ, "out")
	h.Mrs(4, ga64.SysFAR)
	h.Lsl(faultSigReg, faultSigReg, 1)
	h.Add(faultSigReg, faultSigReg, 2)
	h.Add(faultSigReg, faultSigReg, 4)
	h.Mrs(3, ga64.SysELR)
	h.AddI(3, 3, 4) // skip the faulting instruction
	h.Msr(ga64.SysELR, 3)
	h.Label("out")
	h.Eret()
	himg, err := h.Assemble()
	if err != nil {
		return nil, err
	}
	return &Program{Seed: seed, Ops: ops, Image: img, Handler: himg}, nil
}
