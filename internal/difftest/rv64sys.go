package difftest

// The RV64 full-system differential lane: seeded random programs that boot
// in M-mode, build sv39 page tables with ordinary stores, install trap
// vectors, enable paging, drop to S- or U-mode via mret and trap back —
// ecalls, controlled page faults (read-only, A=0, D=0, supervisor-only,
// user-only and unmapped pages), illegal CSR accesses and medeleg-delegated
// supervisor handling — all swept across the unified reference
// interpreter (via rv64.Port), the Captive DBT at
// O1–O4 and the QEMU baseline with bit-identical register files, CSRs,
// memory windows and instruction counts. This is the system-level half of
// the retargetability story: guest paging and exceptions in the hot path of
// every engine, through the same port the user-level lane uses.

import (
	"fmt"
	"math/rand"

	"captive/internal/guest/rv64"
	"captive/internal/guest/rv64/asm"
)

// Guest physical layout of the sys lane. Code, buffers and stack reuse the
// user lane's map (identity-mapped by two megapages); the page tables and
// the directed fault pages live above the probed windows.
const (
	rvsRoot = 0x700000 // sv39 root (level-2 table)
	rvsL1   = 0x701000 // level-1 table (megapage leaves + one pointer)
	rvsL0   = 0x702000 // level-0 table (the 4 KiB fault pages)

	// Directed fault-page VAs, identity-mapped 4 KiB pages under rvsL0.
	RVSysROPage   = 0x400000 // R only (A,D set): stores fault
	RVSysNoAPage  = 0x401000 // A=0: every access faults (Svade)
	RVSysNoDPage  = 0x402000 // D=0: stores fault, loads succeed
	RVSysSPage    = 0x403000 // U=0: user access faults, supervisor succeeds
	RVSysUPage    = 0x404000 // U=1: supervisor access needs mstatus.SUM
	RVSysUnmapped = 0x405000 // V=0: every access faults

	// The fault window is probed too, so constructs may store through any
	// mapping that permits it.
	RVSysFaultProbeStart = 0x400000
	RVSysFaultProbeEnd   = 0x406000
)

// rvSentinel is the x31 value the final ecall carries so the M-mode handler
// clears mtvec and exits (x31 is written nowhere else).
const rvSentinel = 0xE0D

// rvsysCSRNames lists the compared CSRs in snapshot order. The trailing
// interrupt CSRs are snapshotted by the IRQ lane only (rvirqSnapshot); the
// sys lane's shorter snapshot uses the common prefix.
var rvsysCSRNames = []string{
	"priv", "mstatus", "medeleg", "mtvec", "mscratch", "mepc", "mcause", "mtval",
	"stvec", "sscratch", "sepc", "scause", "stval", "satp",
	"mideleg", "mie", "mip",
}

func rvsysCSRName(i int) string {
	if i < len(rvsysCSRNames) {
		return rvsysCSRNames[i]
	}
	return fmt.Sprintf("csr%d", i)
}

// rvsysSnapshot extracts the compared CSR state.
func rvsysSnapshot(s *rv64.Sys) []uint64 {
	return []uint64{
		uint64(s.Mode), s.Mstatus, s.Medeleg, s.Mtvec, s.Mscratch, s.Mepc,
		s.Mcause, s.Mtval, s.Stvec, s.Sscratch, s.Sepc, s.Scause, s.Stval, s.Satp,
	}
}

// --- generator ---------------------------------------------------------------

// GenerateRV64Sys builds a random full-system RV64 program from a seed. The
// M-mode prologue stores the sv39 page tables, installs mtvec (and, in the
// supervisor flavour, stvec plus a random medeleg subset), seeds every
// register, enables paging and mrets into the body at S or U privilege. The
// body mixes the user lane's construct set with ecall round-trips, directed
// page-fault accesses and CSR traffic, and finally raises the sentinel
// ecall that makes the M handler clear mtvec and exit with code 0.
func GenerateRV64Sys(seed int64, ops int) (*Program, error) {
	rng := rand.New(rand.NewSource(seed))
	p := asm.New(RVOrg)
	g := &rvSysGenerator{
		rvGenerator: rvGenerator{rng: rng, p: p, buf0: RVBuf0, buf1: RVBuf1, stackTop: RVStackTop},
		// Half the programs run the body in U-mode (all traps to M); the
		// other half in S-mode with a random delegable subset sent to the
		// S handler and a random SUM setting.
		super: rng.Intn(2) == 1,
	}
	if g.super {
		g.sum = rng.Intn(2) == 1
		// Delegate a random subset of {breakpoint, fetch/load/store page
		// fault}; ecalls always reach M so the exit protocol stays there.
		for _, c := range []uint64{rv64.CauseBreakpoint, rv64.CauseInsnPage,
			rv64.CauseLoadPage, rv64.CauseStorePage} {
			if rng.Intn(2) == 1 {
				g.medeleg |= 1 << c
			}
		}
	}

	g.machinePrologue()
	p.Label("body")
	for i := 0; i < ops; i++ {
		g.sysConstruct()
	}
	p.Li(31, rvSentinel)
	p.Ecall()
	g.handlers()
	g.epilogue()

	img, err := p.Assemble()
	if err != nil {
		return nil, err
	}
	return &Program{Seed: seed, Ops: ops, Image: img}, nil
}

type rvSysGenerator struct {
	rvGenerator
	super   bool   // body runs in S-mode (else U-mode)
	sum     bool   // mstatus.SUM for the S flavour
	medeleg uint64 // delegated cause mask (S flavour only)
}

// pte assembles an sv39 PTE for a physical address.
func pte(pa uint64, bits uint64) uint64 { return pa>>12<<10 | bits }

// machinePrologue emits the M-mode boot: registers, page tables, vectors,
// satp, and the mret that drops into the body.
func (g *rvSysGenerator) machinePrologue() {
	p := g.p

	// Register seeding: the user lane's conventions, with x4 repurposed as
	// the trap-signature accumulator and x31 reserved for the exit sentinel.
	g.prologue()
	p.Li(4, 0)
	p.Li(31, 0)

	// The user bit of the code/data megapages follows the body's mode: an
	// S-mode body must not fetch user pages (sv39 forbids it), a U-mode
	// body cannot touch supervisor ones.
	var u uint64
	if !g.super {
		u = rv64.PTEU
	}
	leaf := uint64(rv64.PTEV | rv64.PTEA | rv64.PTED)
	store := func(table uint64, idx int, v uint64) {
		p.Li(30, v)
		p.Li(29, table+uint64(idx)*8)
		p.Sd(30, 29, 0)
	}
	// root[0] -> L1; L1[0] RWX megapage (code), L1[1] RW megapage (data,
	// W^X), L1[2] -> L0 with the directed fault pages.
	store(rvsRoot, 0, pte(rvsL1, rv64.PTEV))
	store(rvsL1, 0, pte(0, leaf|rv64.PTER|rv64.PTEW|rv64.PTEX|u))
	store(rvsL1, 1, pte(0x200000, leaf|rv64.PTER|rv64.PTEW|u))
	store(rvsL1, 2, pte(rvsL0, rv64.PTEV))
	store(rvsL0, 0, pte(RVSysROPage, leaf|rv64.PTER|u))
	store(rvsL0, 1, pte(RVSysNoAPage, rv64.PTEV|rv64.PTER|rv64.PTEW|rv64.PTED|u))
	store(rvsL0, 2, pte(RVSysNoDPage, rv64.PTEV|rv64.PTER|rv64.PTEW|rv64.PTEA|u))
	store(rvsL0, 3, pte(RVSysSPage, leaf|rv64.PTER|rv64.PTEW))
	store(rvsL0, 4, pte(RVSysUPage, leaf|rv64.PTER|rv64.PTEW|rv64.PTEU))
	// rvsL0[5] (RVSysUnmapped) stays zero: V=0.

	// Vectors and delegation.
	p.La(30, "mtrap")
	p.Csrw(rv64.CSRMtvec, 30)
	if g.super {
		p.La(30, "strap")
		p.Csrw(rv64.CSRStvec, 30)
		p.Li(30, g.medeleg)
		p.Csrw(rv64.CSRMedeleg, 30)
	}

	// Enable sv39 and fence the translation regime.
	p.Li(30, rv64.SatpModeSv39<<60|rvsRoot>>12)
	p.Csrw(rv64.CSRSatp, 30)
	p.SfenceVma()

	// mstatus.MPP selects the body's mode (plus SUM for the S flavour),
	// then mret vectors into it.
	mpp := uint64(rv64.PrivU)
	if g.super {
		mpp = rv64.PrivS
	}
	status := mpp << rv64.MstatusMPPShift
	if g.sum {
		status |= rv64.MstatusSUM
	}
	p.Li(30, status)
	p.Csrw(rv64.CSRMstatus, 30)
	p.La(30, "body")
	p.Csrw(rv64.CSRMepc, 30)
	p.Mret()
}

// handlers emits the M-mode trap handler (signature accumulation, skip the
// trapping instruction, sentinel exit) and the S-mode handler for delegated
// causes.
func (g *rvSysGenerator) handlers() {
	p := g.p

	p.Label("mtrap")
	p.Csrrw(30, rv64.CSRMscratch, 30) // scratch-swap traffic through traps
	p.Csrr(30, rv64.CSRMcause)
	p.Slli(4, 4, 3)
	p.Add(4, 4, 30)
	p.Csrr(30, rv64.CSRMtval)
	p.Add(4, 4, 30)
	p.Csrr(30, rv64.CSRMepc)
	p.Addi(30, 30, 4) // skip the trapping instruction
	p.Csrw(rv64.CSRMepc, 30)
	p.Li(30, rvSentinel)
	p.Bne(31, 30, "mtrap_ret")
	p.Csrw(rv64.CSRMtvec, asm.X0) // no vector: the next ecall exits cleanly
	p.Ecall()
	p.Label("mtrap_ret")
	p.Mret()

	p.Label("strap")
	p.Csrrw(30, rv64.CSRSscratch, 30)
	p.Csrr(30, rv64.CSRScause)
	p.Slli(4, 4, 3)
	p.Add(4, 4, 30)
	p.Csrr(30, rv64.CSRStval)
	p.Add(4, 4, 30)
	p.Csrr(30, rv64.CSRSepc)
	p.Addi(30, 30, 4)
	p.Csrw(rv64.CSRSepc, 30)
	p.Sret()
}

// sysConstruct emits one body construct: the user lane's set most of the
// time, with ecall round-trips, directed fault accesses and CSR traffic
// mixed in.
func (g *rvSysGenerator) sysConstruct() {
	p, rng := g.p, g.rng
	switch rng.Intn(20) {
	case 0: // ecall round-trip through the trap path
		p.Ecall()
	case 1: // directed access to a fault page (most fault, some succeed)
		g.faultAccess()
	case 2: // CSR traffic: legal in S (sscratch/status reads), illegal in U
		g.csrTouch()
	default:
		g.construct()
	}
}

// faultAccess touches one of the directed fault pages. Which accesses
// trap is mode- and SUM-dependent; the handler skips the instruction, so
// destination registers keep their prior values on the faulting paths —
// all of it asserted bit-identical across engines.
func (g *rvSysGenerator) faultAccess() {
	p, rng := g.p, g.rng
	pages := []uint64{RVSysROPage, RVSysNoAPage, RVSysNoDPage, RVSysSPage, RVSysUPage, RVSysUnmapped}
	va := pages[rng.Intn(len(pages))]
	p.Li(30, va+uint64(rng.Intn(64))*8)
	if rng.Intn(2) == 0 {
		p.Ld(g.dst(), 30, 0)
	} else {
		p.Sd(g.src(), 30, 0)
	}
}

// csrTouch emits supervisor CSR traffic: reads of the trap state and
// read/write traffic on sscratch. In the U-mode flavour every access raises
// an illegal-instruction trap and is skipped — exercising the privilege
// checks through all engines.
func (g *rvSysGenerator) csrTouch() {
	p, rng := g.p, g.rng
	switch rng.Intn(4) {
	case 0:
		p.Csrrw(g.dst(), rv64.CSRSscratch, g.src())
	case 1:
		p.Csrr(g.dst(), rv64.CSRScause)
	case 2:
		p.Csrr(g.dst(), rv64.CSRSepc)
	default:
		p.Csrrs(g.dst(), rv64.CSRSstatus, asm.X0)
	}
}
