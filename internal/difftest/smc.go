package difftest

// The self-modifying-code lane (the ROADMAP "widen the generators" item):
// seeded programs that store fresh instruction words over a code location
// that is executed between the stores. This drives the engines' SMC
// machinery through its full cycle — Captive's host-MMU write protection of
// translated pages (§2.6: fault → invalidate → unprotect → retry) and the
// QEMU baseline's dirty-tracking slow path (write-TLB eviction →
// pageHasCode → invalidate) — while the golden interpreter, which rescans
// blocks from current memory on every entry, defines the architectural
// outcome. Besides bit-identical state, the harness asserts that
// Metrics().SMCInvals actually fired on both DBT engines, so the lane can
// never silently degrade into one that misses the protection path.

import (
	"math/rand"

	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
)

// smcPatchScratch are the registers the patch sequence clobbers (address
// and instruction word). They are inside the generator's destination range,
// so clobbers stay deterministic across engines.
const (
	smcAddrReg = 2
	smcWordReg = 3
)

// smcPatchWord draws one safe straight-line instruction word to store over
// the patch slot: register-visible, never control flow, always decodable.
func smcPatchWord(rng *rand.Rand) uint32 {
	rd := uint32(minDst + rng.Intn(maxDst-minDst+1))
	rn := uint32(minDst + rng.Intn(maxDst-minDst+1))
	rm := uint32(minDst + rng.Intn(maxDst-minDst+1))
	switch rng.Intn(6) {
	case 0:
		return ga64.EncR(ga64.OpAddReg, rd, rn, rm, 0, 0)
	case 1:
		return ga64.EncR(ga64.OpSubReg, rd, rn, rm, 0, 0)
	case 2:
		return ga64.EncR(ga64.OpEorReg, rd, rn, rm, 0, 0)
	case 3:
		return ga64.EncMOVW(ga64.OpMovz, rd, uint32(rng.Intn(4)), uint32(rng.Intn(1<<16)))
	case 4:
		return ga64.EncI(ga64.OpAddImm, rd, rn, uint32(rng.Intn(1<<14)))
	default:
		return ga64.EncS(ga64.OpNop, 0, 0, 0)
	}
}

// GenerateSMC builds a random self-modifying GA64 program from a seed. The
// body alternates the user-lane construct set with patch rounds: store a
// fresh instruction word over the first slot of the "patch" routine, then
// call it — so from the second round on, the program overwrites code it has
// already executed and re-executes it. The patch routine sits on the same
// guest page as the rest of the program, which is write-protected (Captive)
// or dirty-tracked (QEMU) as soon as any block on it is translated.
func GenerateSMC(seed int64, ops int) (*Program, error) {
	rng := rand.New(rand.NewSource(seed))
	p := asm.New(Org)
	g := &generator{rng: rng, p: p}

	g.prologue()
	rounds := 2 + rng.Intn(3)
	per := ops/rounds + 1
	for i := 0; i < rounds; i++ {
		for j, n := 0, 1+rng.Intn(per); j < n; j++ {
			g.construct()
		}
		p.Adr(smcAddrReg, "patch")
		p.MovI(smcWordReg, uint64(smcPatchWord(rng)))
		p.Str32(smcWordReg, smcAddrReg, 0)
		for j, n := 0, 1+rng.Intn(3); j < n; j++ {
			g.simpleOp()
		}
		p.BL("patch")
	}
	p.Hlt(0)
	// The patch routine: one rewritten slot, then return. Ret ends the
	// block under the shared formation rules, so the slot is always decoded
	// fresh at block entry by every engine after an invalidation.
	p.Label("patch")
	p.Nop() // the patched slot; overwritten before the first call
	p.Ret()
	g.epilogue()

	img, err := p.Assemble()
	if err != nil {
		return nil, err
	}
	// The user-lane vector stub: EL1-sync returns to the interrupted
	// stream, so SVC constructs round-trip.
	h := asm.New(HandlerBase)
	h.Eret()
	himg, err := h.Assemble()
	if err != nil {
		return nil, err
	}
	return &Program{Seed: seed, Ops: ops, Image: img, Handler: himg}, nil
}
