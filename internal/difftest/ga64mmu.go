package difftest

// The GA64 MMU-on/EL0 lane (the ROADMAP "widen the generators" item):
// generated programs that build guest page tables with ordinary stores,
// enable the MMU, drop to EL0 through eret and run the user-lane construct
// set under translation, bouncing SVCs through the lower-EL vector — so the
// GA64 engines' host-MMU/softmmu paged paths are differentially tested just
// like RV64's sv39 lane.

import (
	"fmt"
	"math/rand"

	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
)

// Guest-physical placement of the MMU lane's page tables (above every
// probed window) and the fixed EL0 entry point the prologue pads to (so the
// eret target is a constant regardless of prologue length).
const (
	mmuL3    = 0x700000 // TTBR0 root
	mmuL2    = 0x701000
	mmuL1    = 0x702000 // four 2 MiB large leaves: identity 0..8 MiB
	MMUEntry = Org + 0x1000
)

// GenerateMMU builds a random MMU-on/EL0 GA64 program: the EL1 prologue
// stores a 2 MiB-granule identity mapping of all guest RAM (valid, writable,
// user at every level), points TTBR0 at it, enables the MMU, then erets to
// EL0 where the standard construct set runs under translation until hlt #0.
func GenerateMMU(seed int64, ops int) (*Program, error) {
	rng := rand.New(rand.NewSource(seed))
	p := asm.New(Org)
	g := &generator{rng: rng, p: p, el0: true}

	// Page tables first (X2/X3 scratch; reseeded by the prologue below).
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

	// Registers, VBAR and flags (the user lane's prologue).
	g.prologue()

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
		// A silent overrun would make the eret land backward inside the
		// prologue and loop forever on every engine.
		return nil, fmt.Errorf("difftest: MMU prologue (%#x) overran the fixed EL0 entry %#x", p.PC(), uint64(MMUEntry))
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

	// Exception vectors: sync-same (VBAR+0) and sync-lower (VBAR+0x100)
	// both return to the interrupted stream — EL0 code raises only SVCs.
	h := asm.New(HandlerBase)
	h.Eret()
	for h.PC() < HandlerBase+ga64.VecSyncLower {
		h.Nop()
	}
	h.Eret()
	himg, err := h.Assemble()
	if err != nil {
		return nil, err
	}
	return &Program{Seed: seed, Ops: ops, Image: img, Handler: himg}, nil
}
