package vx64

import (
	"testing"
)

// runStepped replicates Run's semantics with per-instruction stepping and
// no superblock fast path — the pre-superblock execution loop, kept as the
// reference for the equivalence tests.
func runStepped(c *CPU, cycleBudget uint64) Trap {
	limit := c.Stats.Cycles + cycleBudget
	for c.Stats.Cycles < limit {
		t := c.Step()
		if t.Kind != TrapNone {
			return t
		}
	}
	return Trap{Kind: TrapBudget, RIP: c.RIP}
}

// sbTestProgram assembles a program exercising every superblock concern:
// long straight-line runs, taken and fall-through branches, loads/stores
// (TLB-miss cycle charges under paging), a helper call, a software trap the
// embedder resumes past, a divide and a final halt. It returns the entry VA.
func sbTestProgram(c *CPU) uint64 {
	// Data page for memory traffic.
	db := uint64(directBase)
	c.Phys.W64(0x8000, 7)
	preEnd := asm(c.Phys, 0,
		Inst{Op: MOVI32, Rd: 0, Imm: 200}, // loop counter
		Inst{Op: XORrr, Rd: 1, Rs: 1},     // accumulator
		Inst{Op: MOVI64, Rd: 2, Imm: int64(db + 0x8000)},
	)
	// Loop body at 0x20 (padded with NOPs up to it).
	for i := preEnd; i < 0x20; i++ {
		c.Phys[i] = byte(NOP)
	}
	body := []Inst{
		{Op: LOAD64, Rd: 3, M: Mem{Base: R2, Index: NoReg, Scale: 1}},
		{Op: ADDrr, Rd: 3, Rs: 0},
		{Op: STORE64, Rs: 3, M: Mem{Base: R2, Index: NoReg, Scale: 1}},
		{Op: ADDrr, Rd: 1, Rs: 3},
		{Op: MOVrr, Rd: 4, Rs: 1},
		{Op: SHRri, Rd: 4, Imm: 3},
		{Op: ANDri, Rd: 4, Imm: 15},
		{Op: ADDri, Rd: 4, Imm: 1},
		{Op: MOVrr, Rd: 5, Rs: 1},
		{Op: UDIVrr, Rd: 5, Rs: 4},
		{Op: ADDrr, Rd: 1, Rs: 5},
		{Op: HELPER, Imm: 0}, // continues; mixes r6 into r1
		{Op: TESTri, Rd: 0, Imm: 3},
		{Op: JCC, Cond: CondNE, Imm: 2}, // skip the TRAP on 3 of 4 iterations
		{Op: TRAP, Imm: 9},              // embedder resumes
		{Op: ADDri, Rd: 0, Imm: -1},
		{Op: CMPri, Rd: 0, Imm: 0},
		{Op: JCC, Cond: CondNE, Imm: 0}, // patched to loop back
		{Op: HLT},
	}
	at := uint64(0x20)
	var ends []uint64
	for i := range body {
		at = asm(c.Phys, at, body[i])
		ends = append(ends, at)
	}
	// Patch the backward branch (second-to-last op) to target 0x20.
	jccEnd := ends[len(ends)-2]
	jccStart := ends[len(ends)-3]
	asm(c.Phys, jccStart, Inst{Op: JCC, Cond: CondNE, Imm: int64(0x20) - int64(jccEnd)})
	// The forward JCC skips the 2-byte TRAP; its encoded Imm of 2 is
	// already correct.
	c.InvalidateCode(0, at)
	c.Helpers = []HelperFunc{func(c *CPU) HelperAction {
		c.R[6] += 3
		c.R[1] ^= c.R[6]
		return HelperContinue
	}}
	return directBase
}

// runCopied runs one budget slice through Run and copies out the trap, which
// Run hands back as the CPU's own record.
func runCopied(c *CPU, cycleBudget uint64) Trap { return *c.Run(cycleBudget) }

// runToCompletion drives a CPU like an embedder: resume after soft traps,
// stop on halt, budget exhaustion or anything unexpected. exec runs one
// budget slice (runCopied or runStepped).
func runToCompletion(t *testing.T, c *CPU, exec func(*CPU, uint64) Trap, slice uint64) (Trap, int) {
	t.Helper()
	resumes := 0
	for i := 0; i < 1_000_000; i++ {
		tr := exec(c, slice)
		switch tr.Kind {
		case TrapSoft:
			resumes++
			continue
		case TrapBudget:
			continue
		case TrapHlt:
			return tr, resumes
		default:
			t.Fatalf("unexpected trap %v", tr)
		}
	}
	t.Fatal("program did not halt")
	return Trap{}, resumes
}

// TestSuperblockStepEquivalence pins the tentpole invariant: superblock
// execution is bit-identical to per-Step execution — register file, flags,
// RIP, trap sequence and the Stats counters (Insts and Cycles in
// particular), across budget slices that expire at every possible point
// inside and between superblocks.
func TestSuperblockStepEquivalence(t *testing.T) {
	slices := []uint64{1, 7, 23, 97, 211, 997, 5003, 1 << 20}
	for _, slice := range slices {
		a := newTestCPU()
		b := newTestCPU()
		entryA := sbTestProgram(a)
		entryB := sbTestProgram(b)
		a.RIP, b.RIP = entryA, entryB

		trA, resA := runToCompletion(t, a, runCopied, slice)
		trB, resB := runToCompletion(t, b, runStepped, slice)

		if trA != trB {
			t.Fatalf("slice %d: final traps differ: %+v vs %+v", slice, trA, trB)
		}
		if resA != resB {
			t.Fatalf("slice %d: soft-trap counts differ: %d vs %d", slice, resA, resB)
		}
		if a.R != b.R || a.X != b.X || a.F != b.F || a.RIP != b.RIP {
			t.Fatalf("slice %d: architectural state diverged:\n run: R=%v rip=%#x\nstep: R=%v rip=%#x",
				slice, a.R, a.RIP, b.R, b.RIP)
		}
		if a.Stats != b.Stats {
			t.Fatalf("slice %d: stats diverged:\n run: %+v\nstep: %+v", slice, a.Stats, b.Stats)
		}
		if string(a.Phys) != string(b.Phys) {
			t.Fatalf("slice %d: memory diverged", slice)
		}
	}
}

// TestSuperblockBudgetBoundary sweeps budgets one deci-cycle at a time
// across the first few hundred cycles of the program: the superblock
// amortized budget check must stop at exactly the instruction the stepped
// loop stops at.
func TestSuperblockBudgetBoundary(t *testing.T) {
	for budget := uint64(0); budget < 600; budget++ {
		a := newTestCPU()
		b := newTestCPU()
		a.RIP = sbTestProgram(a)
		b.RIP = sbTestProgram(b)
		trA := *a.Run(budget)
		trB := runStepped(b, budget)
		if trA != trB || a.Stats != b.Stats || a.R != b.R || a.RIP != b.RIP {
			t.Fatalf("budget %d: run=%+v insts=%d cyc=%d rip=%#x; step=%+v insts=%d cyc=%d rip=%#x",
				budget, trA, a.Stats.Insts, a.Stats.Cycles, a.RIP,
				trB, b.Stats.Insts, b.Stats.Cycles, b.RIP)
		}
	}
}

// TestSuperblockInvalidateMidBlock patches an instruction in the middle of
// an already-executed superblock; InvalidateCode must drop the predecoded
// run so the next execution sees the new bytes.
func TestSuperblockInvalidateMidBlock(t *testing.T) {
	c := newTestCPU()
	end := asm(c.Phys, 0,
		Inst{Op: MOVI8, Rd: 0, Imm: 1},
		Inst{Op: MOVI8, Rd: 1, Imm: 10}, // the patch target (byte offset 3)
		Inst{Op: ADDrr, Rd: 0, Rs: 1},
		Inst{Op: HLT},
	)
	run(t, c, directBase)
	if c.R[0] != 11 {
		t.Fatalf("first run: r0 = %d, want 11", c.R[0])
	}
	// Patch only the second instruction's immediate and invalidate just
	// that byte range — the superblock covering it must be rebuilt.
	asm(c.Phys, 3, Inst{Op: MOVI8, Rd: 1, Imm: 20})
	c.InvalidateCode(3, 3)
	run(t, c, directBase)
	if c.R[0] != 21 {
		t.Errorf("after patch: r0 = %d, want 21 (stale superblock executed)", c.R[0])
	}
	_ = end
}

// TestSuperblockChainPatchShape replays the engines' chain patch/unpatch
// sequence at the vx64 level: a block ends in a TRAP epilogue, the embedder
// overwrites it with a compare-and-jump chain slot (plus a new terminal
// TRAP) and invalidates the epilogue range, exactly like codeCache.chain.
// The already-built superblock ending at the TRAP must be dropped.
func TestSuperblockChainPatchShape(t *testing.T) {
	c := newTestCPU()
	// Block A: set r15 (the "guest PC"), fall into the epilogue TRAP.
	epi := asm(c.Phys, 0,
		Inst{Op: MOVI64, Rd: 15, Imm: 0x4000},
		Inst{Op: MOVI8, Rd: 5, Imm: 1},
	)
	asm(c.Phys, epi, Inst{Op: TRAP, Imm: 1})
	// Block B at 0x100: the chain target.
	asm(c.Phys, 0x100,
		Inst{Op: MOVI8, Rd: 6, Imm: 42},
		Inst{Op: HLT},
	)
	c.RIP = directBase
	if tr := c.Run(1_000_000); tr.Kind != TrapSoft || tr.Vec != 1 {
		t.Fatalf("expected dispatch trap, got %v", tr)
	}
	if c.R[6] == 42 {
		t.Fatal("block B ran before chaining")
	}

	// Patch the epilogue: movi64 r12, 0x4000; cmp r15, r12; jne +5;
	// jmp B — the chain-slot shape of core/chain.go — then re-terminate.
	var buf []byte
	buf = Encode(buf, &Inst{Op: MOVI64, Rd: 12, Imm: 0x4000})
	buf = Encode(buf, &Inst{Op: CMPrr, Rd: 15, Rs: 12})
	buf = Encode(buf, &Inst{Op: JCC, Cond: CondNE, Imm: 5})
	db := uint64(directBase)
	jmpEnd := db + epi + uint64(len(buf)) + 5
	buf = Encode(buf, &Inst{Op: JMP, Imm: int64(db+0x100) - int64(jmpEnd)})
	buf = Encode(buf, &Inst{Op: TRAP, Imm: 1})
	copy(c.Phys[epi:], buf)
	c.InvalidateCode(epi, uint64(len(buf)))

	c.RIP = directBase
	if tr := c.Run(1_000_000); tr.Kind != TrapHlt {
		t.Fatalf("expected chained execution to halt in block B, got %v", tr)
	}
	if c.R[6] != 42 {
		t.Errorf("chain slot not executed: r6 = %d", c.R[6])
	}

	// Unpatch (writeEpilogue shape): restore the TRAP, invalidate, and the
	// superblock must fall back to the dispatcher exit.
	var tr2 []byte
	tr2 = Encode(tr2, &Inst{Op: TRAP, Imm: 1})
	for len(tr2) < len(buf) {
		tr2 = append(tr2, byte(NOP))
	}
	copy(c.Phys[epi:], tr2)
	c.InvalidateCode(epi, uint64(len(tr2)))
	c.R[6] = 0
	c.RIP = directBase
	if tr := c.Run(1_000_000); tr.Kind != TrapSoft || tr.Vec != 1 {
		t.Fatalf("expected dispatch trap after unpatch, got %v", tr)
	}
	if c.R[6] != 0 {
		t.Error("stale chained superblock executed after unpatch")
	}
}

// TestSuperblockPageSpanInvalidation builds a superblock whose bytes span a
// page boundary and invalidates only the second page: the generation check
// covers both pages a run touches.
func TestSuperblockPageSpanInvalidation(t *testing.T) {
	c := newTestCPU()
	// Straight-line run starting just below a page boundary, ending above.
	start := uint64(PageSize - 8)
	at := start
	for i := 0; i < 4; i++ {
		at = asm(c.Phys, at, Inst{Op: ADDri, Rd: 0, Imm: 1})
	}
	at = asm(c.Phys, at, Inst{Op: HLT})
	c.InvalidateCode(start, at-start)
	run(t, c, directBase+start)
	if c.R[0] != 4 {
		t.Fatalf("first run: r0 = %d, want 4", c.R[0])
	}
	// Patch an instruction in the second page only.
	patchAt := uint64(PageSize + 4)
	asm(c.Phys, patchAt, Inst{Op: ADDri, Rd: 0, Imm: 100})
	c.InvalidateCode(patchAt, 6)
	c.R[0] = 0
	run(t, c, directBase+start)
	if c.R[0] != 103 {
		t.Errorf("after second-page patch: r0 = %d, want 103", c.R[0])
	}
}

// TestSuperblockSetCodeRegionResets ensures SetCodeRegion drops all
// superblock state.
func TestSuperblockSetCodeRegionResets(t *testing.T) {
	c := newTestCPU()
	end := asm(c.Phys, 0, Inst{Op: MOVI8, Rd: 0, Imm: 5}, Inst{Op: HLT})
	run(t, c, directBase)
	if c.R[0] != 5 {
		t.Fatal("first run wrong")
	}
	asm(c.Phys, 0, Inst{Op: MOVI8, Rd: 0, Imm: 6}, Inst{Op: HLT})
	c.SetCodeRegion(0, 1<<20) // full reset instead of InvalidateCode
	run(t, c, directBase)
	if c.R[0] != 6 {
		t.Errorf("SetCodeRegion did not reset superblocks: r0 = %d", c.R[0])
	}
	_ = end
}

// TestSuperblockEndsBeforeCodeHi runs code whose last instruction inside
// the code region ends past it: the superblock ends before that
// instruction, and Step runs it, as in the stepped loop. Entered at the
// instruction itself, no superblock is built at all.
func TestSuperblockEndsBeforeCodeHi(t *testing.T) {
	const movAt = PageSize - 6 // a 10-byte MOVI64 ends 4 bytes past the region
	for _, entry := range []uint64{movAt - 3, movAt} {
		setup := func() *CPU {
			c := newTestCPU()
			c.SetCodeRegion(0, PageSize)
			asm(c.Phys, movAt-3, Inst{Op: MOVI8, Rd: 1, Imm: 7})
			asm(c.Phys, movAt, Inst{Op: MOVI64, Rd: 0, Imm: 0x1122334455667788}, Inst{Op: HLT})
			c.RIP = directBase + entry
			return c
		}
		a, b := setup(), setup()
		trA, trB := *a.Run(1_000_000), runStepped(b, 1_000_000)
		if trA != trB || a.R != b.R || a.RIP != b.RIP || a.Stats != b.Stats {
			t.Fatalf("entry %#x: run %v r0=%#x stats %+v; stepped %v r0=%#x stats %+v",
				entry, trA, a.R[0], a.Stats, trB, b.R[0], b.Stats)
		}
		if trA.Kind != TrapHlt || a.R[0] != 0x1122334455667788 {
			t.Fatalf("entry %#x: %v, r0 = %#x, want hlt after the MOVI64", entry, trA, a.R[0])
		}
	}
}

// sbChainProgram writes n straight-line runs from code-region offset 0,
// each adding its index+1 to r0, mixing its index into r1 and jumping to
// the next, then a HLT. It returns each run's offset.
func sbChainProgram(c *CPU, n int) []uint64 {
	starts := make([]uint64, n)
	at := uint64(0)
	for i := range starts {
		starts[i] = at
		at = asm(c.Phys, at,
			Inst{Op: ADDri, Rd: 0, Imm: int64(i + 1)},
			Inst{Op: XORri, Rd: 1, Imm: int64(i)},
			Inst{Op: JMP, Imm: 0},
		)
	}
	asm(c.Phys, at, Inst{Op: HLT})
	return starts
}

// TestSuperblockArenaRecycle runs more distinct runs than the op arena
// holds, so builds recycle it, and checks every pass against the stepped
// loop. A slot built before a recycle must not survive it: its ops have
// been overwritten by later runs, which add other numbers to r0. Then an
// early run is patched and invalidated, and its new bytes must run.
func TestSuperblockArenaRecycle(t *testing.T) {
	const runs = sbArenaOps/3 + 2000 // three ops a run
	a, b := newTestCPU(), newTestCPU()
	starts := sbChainProgram(a, runs)
	sbChainProgram(b, runs)
	compare := func(pass string) {
		t.Helper()
		a.RIP, b.RIP = directBase, directBase
		trA, _ := runToCompletion(t, a, runCopied, 1<<30)
		trB, _ := runToCompletion(t, b, runStepped, 1<<30)
		if trA != trB || a.R != b.R || a.F != b.F || a.RIP != b.RIP || a.Stats != b.Stats {
			t.Fatalf("%s: run r0=%d r1=%d stats %+v; stepped r0=%d r1=%d stats %+v",
				pass, a.R[0], a.R[1], a.Stats, b.R[0], b.R[1], b.Stats)
		}
	}
	compare("first pass")
	compare("second pass")

	for _, c := range []*CPU{a, b} {
		asm(c.Phys, starts[1], Inst{Op: ADDri, Rd: 0, Imm: 1_000_000})
		c.InvalidateCode(starts[1], starts[2]-starts[1])
	}
	r0 := a.R[0]
	compare("after patching run 1")
	if got, want := a.R[0]-r0, uint64(runs*(runs+1)/2-2+1_000_000); got != want {
		t.Errorf("after patching run 1: r0 grew by %d, want %d", got, want)
	}
}

// TestSuperblockBuildAllocFree runs more distinct runs than the superblock
// table and the op arena hold, on a warm CPU: nearly every entry rebuilds,
// and building allocates nothing.
func TestSuperblockBuildAllocFree(t *testing.T) {
	const runs = sbTableSize + sbArenaOps/3
	c := newTestCPU()
	sbChainProgram(c, runs)
	gen0 := c.sbPageGen[0]
	allocs := testing.AllocsPerRun(3, func() {
		c.RIP = directBase
		if tr := c.Run(1 << 30); tr.Kind != TrapHlt {
			t.Fatalf("expected hlt, got %v", tr)
		}
	})
	if c.sbPageGen[0] == gen0 {
		t.Fatal("the arena never recycled: the program is too small to test building")
	}
	if allocs != 0 {
		t.Errorf("running %d freshly built superblocks allocates %.1f times, want 0", runs, allocs)
	}
}
