package vx64

// Superblock (trace) execution. The DBT engines place generated code in the
// declared code region and enter it through the hypervisor direct map, so a
// fetch inside the region needs no page walk, no TLB and no permission
// check: the va→pa relation is linear everywhere the direct map is defined.
// That makes the per-Step overhead — fetch-translation check, decode,
// budget comparison, large-Trap return — pure simulator cost with no
// architectural content, and it dominates the wall-clock of every benchmark
// and difftest sweep. Superblocks are the only predecoded form of code.
//
// A superblock is a predecoded straight-line run of instructions starting
// at some code-region offset and ending at the first instruction that can
// redirect control, leave the simulated CPU, or change translation state.
// runSuperblock executes it in one loop, execRun, with no call and no
// bookkeeping per op:
//
//   - Retirement at entry. When the budget clears the run's worst-case
//     cost, the run's instruction count and summed base cost are added to
//     Stats once, and execRun runs every op. An op that leaves early (a
//     fault, a firing IRQCHK or Kick, a divide, #GP) settles Stats by
//     taking back the count and base cost of the ops after it.
//   - The PROFCNT stash. PROFCNT is the only op that reads Stats before
//     its run ends (every other reader ends a run, so it is last). The
//     build stashes on its arena copy the count and base cost of the ops
//     after it; PROFCNT leaves that cost out of its profile mark, and takes
//     both off Stats around the trace hook. A run holds at most one
//     PROFCNT: a second one ends the run before it.
//   - Stepping at the budget boundary. When the budget may expire inside
//     the run, runSuperblock steps the run's instructions in place instead,
//     checking the budget before each: stepping is the reference the fast
//     path reproduces, and only the suffix the budget stops in is built
//     when Run next enters it.
//
// Architectural behaviour — register file, memory, Stats, profile cells,
// trap kinds and trap points — is bit-identical to calling Step in a loop;
// TestSuperblockStepEquivalence pins this.
//
// Coherence: superblocks are invalidated by InvalidateCode, which the
// engines call on chain patch/unpatch (core/chain.go), block installation
// (core/translate.go), SMC page invalidation and full flushes
// (core/cache.go). Invalidation is lazy — a per-page generation counter is
// bumped and stale superblocks rebuild on next entry — so patching one
// epilogue does not scan the superblock cache.
//
// Memory: the cache is a table of pointer-free value slots, and the ops of
// every cached run live in one fixed-size arena per CPU, written by index.
// Building allocates nothing. A full arena is recycled only after every
// superblock backed by it has been made stale, so no slot ever reaches an
// overwritten op.

const (
	// sbMaxOps caps a superblock's length. Generated blocks are bounded by
	// port.MaxBlockInstrs guest instructions, but the emitted host run can
	// be longer; the cap only splits a run, never changes behaviour. It
	// also bounds a superblock to well under a page, so a run covers at
	// most two code-region pages.
	sbMaxOps = 96

	// sbTableBits sizes the direct-mapped superblock cache. Collisions are
	// benign: the colliding entry is rebuilt on next entry.
	sbTableBits = 14
	sbTableSize = 1 << sbTableBits

	// sbArenaOps sizes each CPU's op arena (512 KiB of ops). Builds fill
	// it front to back; a build that might not fit recycles it from index
	// 0 (buildSuperblock).
	sbArenaOps = 1 << 14
)

// sbSlot is one direct-mapped cache slot: the key and the precomputed
// fields of one predecoded straight-line run, whose ops sit in the arena
// at [start, start+n). It holds no pointer, so the table costs the
// collector nothing, and it is 32 bytes.
type sbSlot struct {
	off uint32 // code-region offset of the run's first instruction (SetCodeRegion bounds it)

	// worst bounds the deci-cycles the whole run can consume before its
	// last instruction completes (base costs plus a TLB-miss allowance per
	// memory access and the taken-branch premium; at most sbMaxOps times
	// about 1,250). If the budget clears this bound at entry, no per-op
	// budget check is needed: the original Step loop would not have
	// stopped mid-run either.
	worst uint32
	base  uint32 // summed opCost of the run's ops, retired at entry
	start uint16 // arena index of the first op (sbArenaOps fits)
	n     uint8  // ops in the run (sbMaxOps fits)

	// pg0/pg1 are the first and last code-region pages the run's bytes
	// touch; gen0/gen1 the generations captured at build time.
	pg0, pg1   uint32
	gen0, gen1 uint32
}

// sbArena holds the predecoded ops of the cached superblocks and the
// encoded length of each, a run's at consecutive indexes.
type sbArena struct {
	ops  [sbArenaOps]Inst
	lens [sbArenaOps]uint8
}

// sbHash maps a code-region offset to a cache slot (Fibonacci hashing;
// block starts are byte-aligned and irregular).
func sbHash(off uint64) uint64 {
	return (off * 0x9E3779B97F4A7C15) >> (64 - sbTableBits)
}

// opWorstCost returns the most deci-cycles one execution of op can charge
// before completing (or faulting out of the run, which ends it anyway).
func opWorstCost(op Op) uint64 {
	w := opCost[op]
	r := &opTable[op]
	if r.Dir != NoAccess {
		w += CostTLBMiss // one translation per access
	}
	if r.Form == FormCondRel32 {
		w += CostBrTaken - CostBrFall
	}
	return w
}

// runSuperblock executes the superblock starting at code-region offset off
// (which the caller has resolved from a direct-map RIP). It returns true
// when execution must return to the embedder, with the trap in c.trap;
// false hands control back to the Run loop — either the run completed (RIP
// is at its successor) or, with the budget within the run's worst case of
// its limit, the run was stepped until it ended or the budget expired (Run
// then reports TrapBudget), exactly as the stepped loop would. No Trap is
// copied on any exit.
func (c *CPU) runSuperblock(off uint64, limit uint64) bool {
	sb := &c.sbTab[sbHash(off)]
	if uint64(sb.off) != off || sb.gen0 != c.sbPageGen[sb.pg0] || sb.gen1 != c.sbPageGen[sb.pg1] {
		if !c.buildSuperblock(sb, off) {
			// step raises the same bus fault stepping would, or runs the
			// instruction that ends past the code region.
			return !c.step()
		}
	}
	if c.Stats.Cycles+uint64(sb.worst) >= limit {
		// The budget may expire inside the run: step its instructions in
		// place, checking the budget before each as Run does.
		for n := sb.n; n > 0 && c.Stats.Cycles < limit; n-- {
			if !c.step() {
				return true
			}
		}
		return false
	}
	// The budget cannot expire before the run's last instruction starts:
	// retire the run once and execute it with no per-op checks at all.
	c.Stats.Insts += uint64(sb.n)
	c.Stats.Cycles += uint64(sb.base)
	ops := c.sbArena.ops[sb.start:][:sb.n]
	return c.execRun(ops, c.sbArena.lens[sb.start:]) < len(ops)
}

// buildSuperblock decodes the straight-line run starting at code-region
// offset off from physical memory straight into the arena, by index, fills
// sb with it and raises sbHigh to the run's end. It reports false, leaving sb
// alone, when the first instruction does not decode or ends past the code
// region (step runs it and reports any fault); a later such instruction
// ends the run before it, as does a second PROFCNT. The same pass stashes
// on the run's PROFCNT the count and base cost of the ops after it
// (execRun).
//
// A run that might not fit behind the arena's last one recycles the arena
// from index 0. Every live superblock's ops are in the arena, and every one
// ends at or below sbHigh, so bumping the generation of each page below
// sbHigh first drops them all: none can run ops a later build overwrites.
func (c *CPU) buildSuperblock(sb *sbSlot, off uint64) bool {
	if c.sbNext > sbArenaOps-sbMaxOps {
		for p := uint64(0); p<<PageShift < c.sbHigh; p++ {
			c.sbPageGen[p]++
		}
		c.sbHigh, c.sbNext = 0, 0
	}
	a, start := c.sbArena, c.sbNext
	i := start
	var worst, base, profBase uint64
	prof := -1
	pa := c.codeLo + off
	for i-start < sbMaxOps && pa < c.codeHi {
		inst := &a.ops[i]
		n, err := decode(inst, c.Phys, int(pa))
		if err != nil || pa+uint64(n) > c.codeHi || inst.Op == PROFCNT && prof >= 0 {
			break
		}
		a.lens[i] = uint8(n)
		worst += opWorstCost(inst.Op)
		base += opCost[inst.Op]
		if inst.Op == PROFCNT {
			prof, profBase = i, base
		}
		i++
		pa += uint64(n)
		if opTable[inst.Op].Ends {
			break
		}
	}
	if i == start {
		return false
	}
	if prof >= 0 {
		// At most sbMaxOps-1 ops follow, each but the last costing at most
		// CostFPSqrt, so the cost fits the stash's 16 bits.
		a.ops[prof].restN, a.ops[prof].restCost = uint8(i-1-prof), uint16(base-profBase)
	}
	c.sbNext = i
	end := pa - c.codeLo
	pg0, pg1 := uint32(off>>PageShift), uint32((end-1)>>PageShift)
	*sb = sbSlot{off: uint32(off), worst: uint32(worst), base: uint32(base), start: uint16(start), n: uint8(i - start),
		pg0: pg0, pg1: pg1, gen0: c.sbPageGen[pg0], gen1: c.sbPageGen[pg1]}
	c.sbHigh = max(c.sbHigh, end)
	return true
}
