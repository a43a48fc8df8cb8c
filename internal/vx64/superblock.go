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
// runSuperblock executes the run in a tight loop: translation hoisted out
// entirely, the budget check amortized to one conservative comparison at
// block entry (falling back to per-op checks only when the budget could
// expire mid-block), and per-op dispatch straight over the predecoded
// slice. Architectural behaviour — register file, memory, Stats.Insts,
// Stats.Cycles, trap kinds and trap points — is bit-identical to calling
// Step in a loop; TestSuperblockStepEquivalence pins this.
//
// Coherence: superblocks are invalidated by InvalidateCode, which the
// engines call on chain patch/unpatch (core/chain.go), block installation
// (core/translate.go), SMC page invalidation and full flushes
// (core/cache.go). Invalidation is lazy — a per-page generation counter is
// bumped and stale superblocks rebuild on next entry — so patching one
// epilogue does not scan the superblock cache.

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
)

// superblock is one predecoded straight-line run.
type superblock struct {
	ops  []Inst  // predecoded instructions (only the last may end the run)
	lens []uint8 // encoded length of each instruction

	// worst bounds the deci-cycles the whole run can consume before its
	// last instruction completes (base costs plus a TLB-miss allowance per
	// memory access and the taken-branch premium). If the budget clears
	// this bound at entry, no per-op budget check is needed: the original
	// Step loop would not have stopped mid-run either.
	worst uint64

	// pg0/pg1 are the first and last code-region pages the run's bytes
	// touch; gen0/gen1 the generations captured at build time.
	pg0, pg1   uint32
	gen0, gen1 uint32
}

// sbSlot is one direct-mapped cache slot.
type sbSlot struct {
	off uint64
	sb  *superblock
}

// sbHash maps a code-region offset to a cache slot (Fibonacci hashing;
// block starts are byte-aligned and irregular).
func sbHash(off uint64) uint64 {
	return (off * 0x9E3779B97F4A7C15) >> (64 - sbTableBits)
}

// endsSuperblock reports whether the instruction terminates a straight-line
// run: control flow, helper calls (helpers may redirect the CPU or
// invalidate code), VM exits and translation-state changes.
func endsSuperblock(op Op) bool {
	switch op {
	case JCC, JMP, JMPR, CALL, CALLR, RET,
		HELPER, TRAP, SYSCALL, SYSRET, HLT, INport, OUTport,
		WRCR3, INVLPG, TLBFLUSHALL:
		return true
	}
	return false
}

// opWorstCost returns the most deci-cycles one execution of op can charge
// before completing (or faulting out of the run, which ends it anyway).
func opWorstCost(op Op) uint64 {
	w := opCost[op]
	switch op {
	case LOAD8, LOAD16, LOAD32, LOAD64, LOADS8, LOADS16, LOADS32,
		STORE8, STORE16, STORE32, STORE64, FLD, FST, IRQCHK, CALL, CALLR, RET:
		w += CostTLBMiss // one translation per access
	case JCC:
		w += CostBrTaken - CostBrFall
	}
	return w
}

// buildSuperblock decodes the straight-line run starting at code-region
// offset off from physical memory and raises sbHigh to the run's end.
// Decoding goes through a reusable scratch buffer so the cached superblock
// holds exact-length slices (many runs are short — a memory op through a
// HELPER ends one after a few ops — and a warm 16k-slot table would
// otherwise pin full-capacity slices). It returns nil when the first
// instruction does not decode (the Step slow path reports the fault).
func (c *CPU) buildSuperblock(off uint64) *superblock {
	if c.sbScratch == nil {
		c.sbScratch = make([]Inst, 0, sbMaxOps)
		c.sbScratchLens = make([]uint8, 0, sbMaxOps)
	}
	ops, lens := c.sbScratch[:0], c.sbScratchLens[:0]
	var worst uint64
	pa := c.codeLo + off
	for len(ops) < sbMaxOps && pa < c.codeHi {
		inst, n, err := Decode(c.Phys, int(pa))
		if err != nil {
			break
		}
		ops = append(ops, inst)
		lens = append(lens, uint8(n))
		worst += opWorstCost(inst.Op)
		pa += uint64(n)
		if endsSuperblock(inst.Op) {
			break
		}
	}
	c.sbScratch, c.sbScratchLens = ops[:0], lens[:0]
	if len(ops) == 0 {
		return nil
	}
	sb := &superblock{
		ops:   append([]Inst(nil), ops...),
		lens:  append([]uint8(nil), lens...),
		worst: worst,
		pg0:   uint32(off >> PageShift),
		pg1:   uint32((pa - 1 - c.codeLo) >> PageShift),
	}
	sb.gen0 = c.sbPageGen[sb.pg0]
	sb.gen1 = c.sbPageGen[sb.pg1]
	c.sbHigh = max(c.sbHigh, pa-c.codeLo)
	return sb
}

// runSuperblock executes the superblock starting at code-region offset off
// (which the caller has resolved from a direct-map RIP). It returns
// stop=true with the trap when execution must return to the embedder;
// stop=false hands control back to the Run loop — either the run completed
// (RIP is at its successor) or the budget expired (Run re-checks and
// reports TrapBudget), exactly as the stepped loop would.
func (c *CPU) runSuperblock(off uint64, limit uint64) (Trap, bool) {
	slot := &c.sbTab[sbHash(off)]
	sb := slot.sb
	if sb == nil || slot.off != off ||
		sb.gen0 != c.sbPageGen[sb.pg0] || sb.gen1 != c.sbPageGen[sb.pg1] {
		sb = c.buildSuperblock(off)
		if sb == nil {
			// Undecodable entry: Step raises the same bus fault stepping
			// would.
			t := c.Step()
			return t, t.Kind != TrapNone
		}
		slot.off, slot.sb = off, sb
	}
	ops, lens := sb.ops, sb.lens
	if c.Stats.Cycles+sb.worst < limit {
		// The budget cannot expire before the run's last instruction
		// starts: dispatch with no per-op checks at all.
		for i := range ops {
			inst := &ops[i]
			c.Stats.Insts++
			c.Stats.Cycles += opCost[inst.Op]
			if !c.execOp(inst, c.RIP+uint64(lens[i])) {
				return c.trap, true
			}
		}
		return Trap{}, false
	}
	// Budget may expire mid-run: replicate the stepped loop's
	// check-before-every-instruction semantics.
	for i := range ops {
		if c.Stats.Cycles >= limit {
			return Trap{}, false
		}
		inst := &ops[i]
		c.Stats.Insts++
		c.Stats.Cycles += opCost[inst.Op]
		if !c.execOp(inst, c.RIP+uint64(lens[i])) {
			return c.trap, true
		}
	}
	return Trap{}, false
}
