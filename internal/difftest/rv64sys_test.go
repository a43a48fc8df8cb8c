package difftest

import (
	"testing"

	"captive/internal/guest/rv64"
	"captive/internal/guest/rv64/asm"
)

// --- directed edge cases ------------------------------------------------------

// checkSys runs a handcrafted program across the sys lane's full engine
// matrix, requires bit-identical state everywhere, and returns the golden
// state for scenario-specific assertions.
func checkSys(t *testing.T, name string, p *asm.Program) State {
	t.Helper()
	img, err := p.Assemble()
	if err != nil {
		t.Fatalf("%s: assemble: %v", name, err)
	}
	return checkDirected(t, RV64Sys, name, &Program{Image: img})[0]
}

// sysBoot emits the shared directed-test boot: sv39 tables (built by the
// test's tables callback), mtvec at "mtrap", paging on, and the mret drop
// into "body" at the given mode with the given extra mstatus bits. The
// M handler records {mcause, mtval} at x20/x21 for the *first* trap only
// (later traps — including the sentinel exit ecall — leave them alone),
// counts traps in x22, skips the trapping instruction and, when x31 holds
// the sentinel, clears mtvec so the next ecall exits cleanly. Note the
// final halting ecall never reaches the handler, so a body with no traps
// of its own ends with x22 == 1 (the sentinel trap).
func sysBoot(mode uint64, status uint64, tables func(p *asm.Program)) *asm.Program {
	p := asm.New(RVOrg)
	p.Li(31, 0)
	p.Li(20, 0)
	p.Li(21, 0)
	p.Li(22, 0)
	tables(p)
	p.La(30, "mtrap")
	p.Csrw(rv64.CSRMtvec, 30)
	p.Li(30, rv64.SatpModeSv39<<60|rvsRoot>>12)
	p.Csrw(rv64.CSRSatp, 30)
	p.SfenceVma()
	p.Li(30, mode<<rv64.MstatusMPPShift|status)
	p.Csrw(rv64.CSRMstatus, 30)
	p.La(30, "body")
	p.Csrw(rv64.CSRMepc, 30)
	p.Mret()
	p.Label("mtrap")
	p.Bne(22, asm.X0, "mtrap_norec")
	p.Csrr(20, rv64.CSRMcause)
	p.Csrr(21, rv64.CSRMtval)
	p.Label("mtrap_norec")
	p.Addi(22, 22, 1)
	p.Csrr(30, rv64.CSRMepc)
	p.Addi(30, 30, 4)
	p.Csrw(rv64.CSRMepc, 30)
	p.Li(30, rvSentinel)
	p.Bne(31, 30, "mtrap_ret")
	p.Csrw(rv64.CSRMtvec, asm.X0)
	p.Ecall()
	p.Label("mtrap_ret")
	p.Mret()
	p.Label("body")
	return p
}

// sysExit emits the sentinel exit.
func sysExit(p *asm.Program) {
	p.Li(31, rvSentinel)
	p.Ecall()
}

// stdTables writes the standard directed-test mapping: root→L1, code RWX
// megapage, data RW megapage, and an L0 with the directed fault pages (the
// generator's layout, supervisor flavour: no user bits).
func stdTables(p *asm.Program) {
	st := func(table uint64, idx int, v uint64) {
		p.Li(30, v)
		p.Li(29, table+uint64(idx)*8)
		p.Sd(30, 29, 0)
	}
	leaf := uint64(rv64.PTEV | rv64.PTEA | rv64.PTED)
	st(rvsRoot, 0, pte(rvsL1, rv64.PTEV))
	st(rvsL1, 0, pte(0, leaf|rv64.PTER|rv64.PTEW|rv64.PTEX))
	st(rvsL1, 1, pte(0x200000, leaf|rv64.PTER|rv64.PTEW))
	st(rvsL1, 2, pte(rvsL0, rv64.PTEV))
	st(rvsL0, 0, pte(RVSysROPage, leaf|rv64.PTER))
	st(rvsL0, 1, pte(RVSysNoAPage, rv64.PTEV|rv64.PTER|rv64.PTEW|rv64.PTED))
	st(rvsL0, 2, pte(RVSysNoDPage, rv64.PTEV|rv64.PTER|rv64.PTEW|rv64.PTEA))
	st(rvsL0, 3, pte(RVSysSPage, leaf|rv64.PTER|rv64.PTEW))
	st(rvsL0, 4, pte(RVSysUPage, leaf|rv64.PTER|rv64.PTEW|rv64.PTEU))
}

// TestSv39PermissionAndADFaults pins the sv39 permission machinery from
// S-mode: stores to read-only and D=0 pages fault (cause 15), loads and
// stores to A=0 pages fault (Svade, cause 13/15), S-mode access to a user
// page without SUM faults, execution of a non-executable page faults with
// cause 12 — each with the faulting VA in mtval, identical on every engine.
func TestSv39PermissionAndADFaults(t *testing.T) {
	cases := []struct {
		name  string
		body  func(p *asm.Program)
		cause uint64
		tval  uint64
	}{
		{"store-to-readonly", func(p *asm.Program) {
			p.Li(5, RVSysROPage)
			p.Sd(6, 5, 8)
		}, rv64.CauseStorePage, RVSysROPage + 8},
		{"load-from-noA", func(p *asm.Program) {
			p.Li(5, RVSysNoAPage)
			p.Ld(6, 5, 16)
		}, rv64.CauseLoadPage, RVSysNoAPage + 16},
		{"store-to-noD", func(p *asm.Program) {
			p.Li(5, RVSysNoDPage)
			p.Sd(6, 5, 0)
		}, rv64.CauseStorePage, RVSysNoDPage},
		{"user-page-from-S-without-SUM", func(p *asm.Program) {
			p.Li(5, RVSysUPage)
			p.Ld(6, 5, 0)
		}, rv64.CauseLoadPage, RVSysUPage},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p := sysBoot(rv64.PrivS, 0, stdTables)
			c.body(p)
			sysExit(p)
			st := checkSys(t, c.name, p)
			if st.ExitCode != 0 {
				t.Fatalf("exit=%#x", st.ExitCode)
			}
			g := goldenRegs(st)
			if g[20] != c.cause || g[21] != c.tval {
				t.Fatalf("cause=%d tval=%#x, want cause=%d tval=%#x", g[20], g[21], c.cause, c.tval)
			}
		})
	}
}

// TestSv39ExecFaultOnDataPage pins W^X on the fetch side: jumping into the
// non-executable data megapage raises an instruction page fault with the
// jump target in mtval. The fetch-fault loop never returns to the body, so
// the exit sentinel is armed before jumping and the M handler exits on the
// first fault.
func TestSv39ExecFaultOnDataPage(t *testing.T) {
	p := sysBoot(rv64.PrivS, 0, stdTables)
	p.Li(31, rvSentinel)
	p.Li(7, 0x200000)
	p.Jalr(asm.X0, 7, 0)
	st := checkSys(t, "exec-of-noX-data-page", p)
	if st.ExitCode != 0 {
		t.Fatalf("exit=%#x", st.ExitCode)
	}
	g := goldenRegs(st)
	if g[20] != rv64.CauseInsnPage || g[21] != 0x200000 {
		t.Fatalf("cause=%d tval=%#x, want insn page fault at 0x200000", g[20], g[21])
	}
}

// TestSv39SUMAllowsUserPages pins the other half of the SUM story: with
// mstatus.SUM set, S-mode loads and stores to user pages succeed.
func TestSv39SUMAllowsUserPages(t *testing.T) {
	p := sysBoot(rv64.PrivS, rv64.MstatusSUM, stdTables)
	p.Li(5, RVSysUPage)
	p.Li(6, 0xABCD)
	p.Sd(6, 5, 0)
	p.Ld(7, 5, 0)
	sysExit(p)
	st := checkSys(t, "sum-allows", p)
	g := goldenRegs(st)
	if g[7] != 0xABCD || g[22] != 1 {
		t.Fatalf("x7=%#x traps=%d, want the store/load to succeed with only the sentinel trap", g[7], g[22])
	}
}

// TestSv39ReservedBitFaults pins the reserved-encoding checks: a non-leaf
// PTE with A/D/U set, a leaf with W-but-not-R, and a misaligned superpage
// all raise page faults rather than translating.
func TestSv39ReservedBitFaults(t *testing.T) {
	cases := []struct {
		name string
		bits uint64 // rvsL1[3] PTE (covers VA 0x600000)
	}{
		{"nonleaf-with-AD", pte(rvsL0, rv64.PTEV|rv64.PTEA|rv64.PTED)},
		{"nonleaf-with-U", pte(rvsL0, rv64.PTEV|rv64.PTEU)},
		{"leaf-W-without-R", pte(0x200000, rv64.PTEV|rv64.PTEW|rv64.PTEA|rv64.PTED)},
		{"misaligned-superpage", pte(0x201000, rv64.PTEV|rv64.PTER|rv64.PTEW|rv64.PTEA|rv64.PTED)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p := sysBoot(rv64.PrivS, 0, func(p *asm.Program) {
				stdTables(p)
				p.Li(30, c.bits)
				p.Li(29, rvsL1+3*8)
				p.Sd(30, 29, 0)
			})
			p.Li(5, 0x600000)
			p.Ld(6, 5, 0)
			sysExit(p)
			st := checkSys(t, c.name, p)
			g := goldenRegs(st)
			if g[20] != rv64.CauseLoadPage || g[21] != 0x600000 {
				t.Fatalf("cause=%d tval=%#x, want load page fault at 0x600000", g[20], g[21])
			}
		})
	}
}

// TestMisalignedPageCrossing pins the engines' shared misaligned-access
// convention: an access spanning a page boundary translates at its base
// address only and proceeds physically contiguous — even when the next
// virtual page maps elsewhere. Three 4 KiB pages map VA 0x600000→PA
// 0x500000, VA 0x601000→PA 0x520000 and VA 0x602000→PA 0x501000 (an alias
// of the page physically adjacent to PA 0x500000). The doubleword load at
// VA 0x600FFC must read PA 0x500FFC..0x501004 (crossing into the
// physically adjacent page, not the remapped one), and a spanning *store*
// at the same VA must likewise land its high half in PA 0x501000 and leave
// VA 0x601000's backing page untouched — identically everywhere.
func TestMisalignedPageCrossing(t *testing.T) {
	const (
		vaA, paA = 0x600000, 0x500000
		vaB, paB = 0x601000, 0x520000
		vaC, paC = 0x602000, 0x501000 // alias of the page after paA
	)
	p := sysBoot(rv64.PrivS, 0, func(p *asm.Program) {
		stdTables(p)
		leaf := uint64(rv64.PTEV | rv64.PTER | rv64.PTEW | rv64.PTEA | rv64.PTED)
		p.Li(30, pte(rvsL0+0x1000, rv64.PTEV)) // rvsL1[3] -> second L0 table
		p.Li(29, rvsL1+3*8)
		p.Sd(30, 29, 0)
		p.Li(30, pte(paA, leaf))
		p.Li(29, rvsL0+0x1000)
		p.Sd(30, 29, 0)
		p.Li(30, pte(paB, leaf))
		p.Sd(30, 29, 8)
		p.Li(30, pte(paC, leaf))
		p.Sd(30, 29, 16)
		// Distinct physical patterns: M-mode stores straight to the PAs.
		p.Li(28, 0x1111111111111111)
		p.Li(29, paA+0xFF8)
		p.Sd(28, 29, 0)
		p.Li(28, 0x2222222222222222)
		p.Li(29, paC) // physically adjacent to paA
		p.Sd(28, 29, 0)
		p.Li(28, 0x3333333333333333)
		p.Li(29, paB)
		p.Sd(28, 29, 0)
	})
	p.Li(5, vaA+0xFFC)
	p.Ld(6, 5, 0) // spanning load across the VA page boundary
	// Spanning store at the same boundary: the high half must land at PA
	// 0x501000 (physically contiguous), not PA 0x520000 (VA-contiguous).
	p.Li(7, 0xAABBCCDD11223344)
	p.Sd(7, 5, 0)
	p.Ld(8, 5, 0) // spanning read-back of the spanning store
	p.Li(9, vaC)
	p.Ld(10, 9, 0) // PA 0x501000 through its own mapping: high store half
	p.Li(9, vaB)
	p.Ld(11, 9, 0) // PA 0x520000: untouched by the spanning store
	sysExit(p)
	st := checkSys(t, "page-cross", p)
	g := goldenRegs(st)
	// Low 4 bytes from PA 0x500FFC (top half of the 0x1111… doubleword),
	// high 4 bytes from the physically adjacent PA 0x501000 (0x2222…) —
	// NOT from PA 0x520000, where VA 0x601000 actually maps.
	if want := uint64(0x22222222_11111111); g[6] != want {
		t.Fatalf("x6=%#x, want %#x (base-page translation, contiguous physical read)", g[6], want)
	}
	if g[8] != 0xAABBCCDD11223344 {
		t.Fatalf("x8=%#x, want the spanning store read back intact", g[8])
	}
	// The discriminating assertion: the store's high half (0xAABBCCDD) sits
	// in PA 0x501000's low word — visible through vaC's direct mapping —
	// with the rest of the 0x2222… pattern above it.
	if want := uint64(0x22222222_AABBCCDD); g[10] != want {
		t.Fatalf("x10=%#x, want %#x (spanning store physically contiguous)", g[10], want)
	}
	if g[11] != 0x3333333333333333 {
		t.Fatalf("x11=%#x, want the remapped page untouched", g[11])
	}
	if g[22] != 1 {
		t.Fatalf("traps=%d, want only the sentinel trap", g[22])
	}
}

// TestCSRWARL pins the WARL legalization, read-only and privilege rules
// across all engines: vector low bits clear, satp rejects unsupported
// modes, mepc aligns, mstatus masks (MPP=2 legalizes to U), medeleg masks
// bit 11, misa writes are ignored, mhartid writes and U-mode CSR accesses
// trap illegal.
func TestCSRWARL(t *testing.T) {
	p := sysBoot(rv64.PrivS, 0, stdTables)
	// From S-mode: stvec/sepc legalization and the sstatus view.
	p.Li(5, 0x234567)
	p.Csrw(rv64.CSRStvec, 5) // low bits forced clear
	p.Csrr(10, rv64.CSRStvec)
	p.Li(5, 0x123457)
	p.Csrw(rv64.CSRSepc, 5)
	p.Csrr(11, rv64.CSRSepc)
	p.Li(5, ^uint64(0))
	p.Csrw(rv64.CSRSscratch, 5)
	p.Csrrc(12, rv64.CSRSscratch, 5) // read then clear all -> x12 = ~0
	p.Csrr(13, rv64.CSRSscratch)     // now 0
	// Illegal from S: M-mode CSRs trap (cause 2) and are skipped.
	p.Li(14, 0x7777)
	p.Csrr(14, rv64.CSRMstatus) // skipped: x14 keeps 0x7777
	// Read-only: writing mhartid traps.
	p.Csrw(rv64.CSRMhartid, 5)
	sysExit(p)
	st := checkSys(t, "warl-s", p)
	g := goldenRegs(st)
	if g[10] != 0x234564 || g[11] != 0x123454 {
		t.Fatalf("stvec=%#x sepc=%#x, want low bits cleared", g[10], g[11])
	}
	if g[12] != ^uint64(0) || g[13] != 0 {
		t.Fatalf("csrrc: x12=%#x x13=%#x", g[12], g[13])
	}
	if g[14] != 0x7777 {
		t.Fatalf("illegal mstatus read from S left x14=%#x, want untouched 0x7777", g[14])
	}
	if g[22] != 3 {
		t.Fatalf("traps=%d, want 2 illegal + the sentinel", g[22])
	}

	// From M-mode (no mret): satp/mstatus/medeleg/misa legalization.
	q := asm.New(RVOrg)
	q.La(30, "mtrap")
	q.Csrw(rv64.CSRMtvec, 30)
	q.Li(5, 5<<60|0x123) // unsupported satp MODE: write ignored entirely
	q.Csrw(rv64.CSRSatp, 5)
	q.Csrr(10, rv64.CSRSatp)
	q.Li(5, rv64.SatpModeSv39<<60|0xFFFF<<44|0x456) // ASID hardwired 0
	q.Csrw(rv64.CSRSatp, 5)
	q.Csrr(11, rv64.CSRSatp)
	q.Csrwi(rv64.CSRSatp, 0) // back to bare
	q.Li(5, 2<<rv64.MstatusMPPShift|rv64.MstatusSUM)
	q.Csrw(rv64.CSRMstatus, 5) // MPP=2 legalizes to U
	q.Csrr(12, rv64.CSRMstatus)
	q.Li(5, ^uint64(0))
	q.Csrw(rv64.CSRMedeleg, 5) // masks to delegatable causes (no bit 11)
	q.Csrr(13, rv64.CSRMedeleg)
	q.Csrw(rv64.CSRMisa, 5) // accepted, ignored
	q.Csrr(14, rv64.CSRMisa)
	q.Csrwi(rv64.CSRMedeleg, 0)
	q.Li(31, rvSentinel)
	q.Ecall()
	q.Label("mtrap")
	q.Csrw(rv64.CSRMtvec, asm.X0)
	q.Ecall()
	st = checkSys(t, "warl-m", q)
	g = goldenRegs(st)
	if g[10] != 0 {
		t.Fatalf("satp after unsupported MODE write = %#x, want unchanged 0", g[10])
	}
	if g[11] != rv64.SatpModeSv39<<60|0x456 {
		t.Fatalf("satp=%#x, want ASID masked", g[11])
	}
	if g[12] != rv64.MstatusSUM {
		t.Fatalf("mstatus=%#x, want MPP legalized to U with SUM kept", g[12])
	}
	if g[13] != rv64.MedelegMask {
		t.Fatalf("medeleg=%#x, want mask %#x", g[13], uint64(rv64.MedelegMask))
	}
	if g[14] != rv64.MisaValue {
		t.Fatalf("misa=%#x, want the fixed %#x", g[14], uint64(rv64.MisaValue))
	}
}

// TestEcallPerMode pins the per-mode ecall causes and the delegation path:
// ecall from U traps with cause 8 (delegated to S when medeleg bit 8 is
// set), from S with cause 9, from M with cause 11.
func TestEcallPerMode(t *testing.T) {
	// U-mode ecall delegated to the S handler; the S handler re-ecalls
	// (cause 9, not delegated) into M which exits. The body's code megapage
	// is user-executable, which S-mode must never execute — so the S
	// handler runs through a second, supervisor-only alias of the code at
	// VA 0x600000 (same physical bytes, no U bit).
	p := asm.New(RVOrg)
	p.Li(31, 0)
	stdTablesUser(p)
	p.La(30, "mtrap")
	p.Csrw(rv64.CSRMtvec, 30)
	p.La(30, "strap")
	p.Li(29, 0x600000)
	p.Add(30, 30, 29) // the handler's S-only alias
	p.Csrw(rv64.CSRStvec, 30)
	p.Li(30, 1<<rv64.CauseEcallU)
	p.Csrw(rv64.CSRMedeleg, 30)
	p.Li(30, rv64.SatpModeSv39<<60|rvsRoot>>12)
	p.Csrw(rv64.CSRSatp, 30)
	p.SfenceVma()
	p.Li(30, rv64.PrivU<<rv64.MstatusMPPShift)
	p.Csrw(rv64.CSRMstatus, 30)
	p.La(30, "body")
	p.Csrw(rv64.CSRMepc, 30)
	p.Mret()
	p.Label("mtrap")
	p.Csrr(21, rv64.CSRMcause)
	p.Csrw(rv64.CSRMtvec, asm.X0)
	p.Ecall() // halts (cause 11 path: mtvec now 0)
	p.Label("strap")
	p.Csrr(20, rv64.CSRScause)
	p.Li(31, rvSentinel)
	p.Ecall() // from S: cause 9, to M
	p.Label("body")
	p.Ecall() // from U: cause 8, delegated to S
	st := checkSys(t, "ecall-modes", p)
	g := goldenRegs(st)
	if g[20] != rv64.CauseEcallU || g[21] != rv64.CauseEcallS {
		t.Fatalf("scause=%d mcause=%d, want 8 (delegated U ecall) and 9 (S ecall)", g[20], g[21])
	}
	if st.ExitCode != 0 {
		t.Fatalf("exit=%#x", st.ExitCode)
	}
}

// stdTablesUser is stdTables with user bits on the code/data megapages (for
// U-mode bodies), plus a supervisor-only executable alias of the code
// megapage at VA 0x600000 for S-mode handlers.
func stdTablesUser(p *asm.Program) {
	st := func(table uint64, idx int, v uint64) {
		p.Li(30, v)
		p.Li(29, table+uint64(idx)*8)
		p.Sd(30, 29, 0)
	}
	leaf := uint64(rv64.PTEV | rv64.PTEA | rv64.PTED | rv64.PTEU)
	st(rvsRoot, 0, pte(rvsL1, rv64.PTEV))
	st(rvsL1, 0, pte(0, leaf|rv64.PTER|rv64.PTEW|rv64.PTEX))
	st(rvsL1, 1, pte(0x200000, leaf|rv64.PTER|rv64.PTEW))
	st(rvsL1, 3, pte(0, rv64.PTEV|rv64.PTEA|rv64.PTED|rv64.PTER|rv64.PTEX))
}

// goldenRegs decodes the x-register values out of a State's register-file
// snapshot.
func goldenRegs(st State) [32]uint64 {
	var out [32]uint64
	off := rv64.MustModule().Registry.Bank("X").Offset
	for i := 0; i < 32; i++ {
		out[i] = leUint64(st.Regs[off+8*i:])
	}
	return out
}

func leUint64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}
