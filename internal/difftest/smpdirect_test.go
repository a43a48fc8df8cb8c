package difftest

import (
	"testing"

	"captive/internal/device"
	"captive/internal/guest/rv64"
	"captive/internal/guest/rv64/asm"
)

// Directed two-hart tests for the cross-core correctness surface the random
// SMP lane can only hit by luck: a sibling-patched function mid-call-loop
// (SMC shootdown), a PTE rewrite published by IPI + sfence.vma (translation
// shootdown), and a WFI parked hart woken by a cross-core IPI. Each program
// runs across the full engine matrix under the deterministic scheduler and
// must be bit-identical everywhere; on top of that the golden run asserts
// the architectural values that prove the interesting interleaving actually
// happened (the patch landed mid-run, the stale window was never sampled,
// the wake came from the IPI).

// IPI mailbox guest-physical registers (DeviceBase + the bus's IPI window).
const (
	rvIPISetPA   = rv64.DeviceBase + 0x2000 + device.IPISet
	rvIPIClearPA = rv64.DeviceBase + 0x2000 + device.IPIClear
	rvIPIPendPA  = rv64.DeviceBase + 0x2000 + device.IPIPend
)

// smpDispatch emits the mhartid dispatch: hart 0 falls through, hart 1
// jumps to the "hart1" label (full jal range, like GenerateRV64SMP).
func smpDispatch(p *asm.Program) {
	p.Csrr(5, rv64.CSRMhartid)
	p.Beq(5, asm.X0, "hart0")
	p.Jal(asm.X0, "hart1")
	p.Label("hart0")
}

// smpSpin emits a hart-0 busy loop of 2*iters instructions, used to pin
// where in hart 1's execution hart 0's actions land under the deterministic
// round-robin schedule.
func smpSpin(p *asm.Program, iters uint64) {
	p.Li(6, iters)
	spin := "spin" // one spin per program is enough
	p.Label(spin)
	p.Addi(6, 6, -1)
	p.Bne(6, asm.X0, spin)
}

// runSMPDirected assembles and runs a directed two-hart program across the
// full matrix, asserting bit-identical per-hart state everywhere, and
// returns the golden per-hart states for architectural assertions.
func runSMPDirected(t *testing.T, p *asm.Program) []State {
	t.Helper()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return checkDirected(t, SMP, t.Name(), &Program{Seed: -1, Image: img})
}

// xreg extracts hart h's x-register n from the golden states.
func xreg(states []State, h, n int) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(states[h].Regs[8*n+i]) << (8 * i)
	}
	return v
}

// TestSMPWFICrossCoreWake parks hart 1 in wfi with the software interrupt
// enabled as a wake source (but mstatus.MIE clear, so no trap), then has
// hart 0 raise hart 1's IPI line through the mailbox after burning several
// quanta. Hart 1 must wake — and read its own pending bit as proof the wake
// came from the cross-core IPI, not a fall-through.
func TestSMPWFICrossCoreWake(t *testing.T) {
	p := asm.New(RVOrg)
	smpDispatch(p)
	// Hart 0: outlast hart 1's setup so the wfi really parks, then IPI.
	smpSpin(p, 700)
	p.Li(7, rvIPISetPA)
	p.Li(8, 1)
	p.Sd(8, 7, 0)
	p.Ecall()

	p.Label("hart1")
	p.Li(6, rv64.MipMSIP)
	p.Csrw(rv64.CSRMie, 6)
	p.Wfi()
	// Woken: sample the pending bitmask (must show our bit), then clear it.
	p.Li(7, rvIPIPendPA)
	p.Ld(11, 7, 0)
	p.Li(7, rvIPIClearPA)
	p.Li(8, 1)
	p.Sd(8, 7, 0)
	p.Li(10, 0x57A7E1)
	p.Ecall()

	golden := runSMPDirected(t, p)
	if got := xreg(golden, 1, 10); got != 0x57A7E1 {
		t.Errorf("hart 1 sentinel = %#x, want 0x57A7E1 (did not run past wfi)", got)
	}
	if got := xreg(golden, 1, 11); got != 1<<1 {
		t.Errorf("hart 1 pending mask at wake = %#x, want %#x (wake not from IPI)", got, 1<<1)
	}
}

// TestSMPCrossHartSMCShootdown has hart 1 call a tiny function F in a tight
// loop while hart 0 — which never executes F's page — rewrites F's add
// immediate from +1 to +2 mid-run. The shootdown must invalidate hart 1's
// translations of a page only hart 1 ever executed, so the accumulator ends
// strictly between K (no patch observed) and 2K (patched before any call).
func TestSMPCrossHartSMCShootdown(t *testing.T) {
	const iters = 1000
	p := asm.New(RVOrg)
	smpDispatch(p)
	// Hart 0: let hart 1 run ~2 quanta of calls, then patch F.
	smpSpin(p, 600)
	p.La(7, "fpatch")
	p.Li(8, uint64(rvAddiWord(10, 10, 2)))
	p.Sw(8, 7, 0)
	p.Fence()
	p.Ecall()

	p.Label("hart1")
	p.Li(10, 0)
	p.Li(6, iters)
	p.Label("callloop")
	p.Jal(asm.RA, "F")
	p.Addi(6, 6, -1)
	p.Bne(6, asm.X0, "callloop")
	p.Ecall()

	// F on its own page: the store above must shoot down a page hart 0
	// never fetched from, isolating the cross-hart invalidation path from
	// the same-hart SMC lane's coverage.
	for p.PC()&0xFFF != 0 {
		p.Nop()
	}
	p.Label("F")
	p.Label("fpatch")
	p.Addi(10, 10, 1)
	p.Ret()

	golden := runSMPDirected(t, p)
	acc := xreg(golden, 1, 10)
	if acc <= iters || acc >= 2*iters {
		t.Errorf("hart 1 accumulator = %d, want strictly between %d and %d "+
			"(patch did not land mid-run)", acc, iters, 2*iters)
	}
}

// TestSMPSfenceVMAIPIShootdown is the translation-shootdown protocol: hart 1
// enables sv39, loads VA 0x400000 (mapped to page A) from S-mode — caching
// the translation — and parks in wfi. Hart 0 then rewrites hart 1's leaf
// PTE to point at page B and raises hart 1's IPI. Hart 1's M-mode handler
// clears the line, executes sfence.vma and returns past the wfi; the reload
// of the same VA must observe B through the fresh walk on every engine. A
// missed per-CPU flush leaves the DBT engines reading stale A while the
// interpreter walks fresh — exactly the divergence this pins.
func TestSMPSfenceVMAIPIShootdown(t *testing.T) {
	const (
		root  = 0x360000
		l1    = 0x361000
		l0    = 0x362000
		pageA = 0x370000
		pageB = 0x371000
		vaX   = 0x400000

		sentinelA = 0xAAAA1111
		sentinelB = 0xBBBB2222
	)
	pte := func(pa uint64, bits uint64) uint64 { return pa>>12<<10 | bits }
	leaf := uint64(rv64.PTEV | rv64.PTEA | rv64.PTED)

	p := asm.New(RVOrg)
	smpDispatch(p)
	// Hart 0: wait out hart 1's setup + first load + park, then swap the
	// leaf to page B and kick hart 1.
	smpSpin(p, 700)
	p.Li(7, l0)
	p.Li(8, pte(pageB, leaf|rv64.PTER))
	p.Sd(8, 7, 0)
	p.Li(7, rvIPISetPA)
	p.Li(8, 1)
	p.Sd(8, 7, 0)
	p.Ecall()

	p.Label("hart1")
	// Sentinels into the two data pages.
	p.Li(7, pageA)
	p.Li(8, sentinelA)
	p.Sd(8, 7, 0)
	p.Li(7, pageB)
	p.Li(8, sentinelB)
	p.Sd(8, 7, 0)
	// sv39 tables: identity megapages for code (0–2MB, X) and data/tables
	// (2–4MB), plus a 4K leaf mapping vaX -> pageA.
	p.Li(7, root)
	p.Li(8, pte(l1, rv64.PTEV))
	p.Sd(8, 7, 0)
	p.Li(7, l1)
	p.Li(8, pte(0, leaf|rv64.PTER|rv64.PTEW|rv64.PTEX))
	p.Sd(8, 7, 0)
	p.Li(8, pte(0x200000, leaf|rv64.PTER|rv64.PTEW))
	p.Sd(8, 7, 8)
	p.Li(8, pte(l0, rv64.PTEV))
	p.Sd(8, 7, 16)
	p.Li(7, l0)
	p.Li(8, pte(pageA, leaf|rv64.PTER))
	p.Sd(8, 7, 0)
	// Trap vector, IPI wake source, sv39 on, drop to S-mode.
	p.La(7, "m_handler")
	p.Csrw(rv64.CSRMtvec, 7)
	p.Li(7, rv64.MipMSIP)
	p.Csrw(rv64.CSRMie, 7)
	p.Li(7, rv64.SatpModeSv39<<60|root>>12)
	p.Csrw(rv64.CSRSatp, 7)
	p.SfenceVma()
	p.Li(7, 1<<rv64.MstatusMPPShift) // MPP=S
	p.Csrw(rv64.CSRMstatus, 7)
	p.La(7, "s_entry")
	p.Csrw(rv64.CSRMepc, 7)
	p.Mret()

	p.Label("s_entry")
	p.Li(7, vaX)
	p.Ld(10, 7, 0) // caches vaX -> pageA
	p.Wfi()        // parked until hart 0's IPI
	p.Ld(11, 7, 0) // post-sfence reload: must walk fresh to pageB
	p.Ecall()      // to m_handler with a non-negative mcause

	p.Label("m_handler")
	p.Csrr(30, rv64.CSRMcause)
	p.Bge(30, asm.X0, "m_exit") // synchronous (ecall from S): exit
	// Machine software interrupt: ack the IPI, flush this hart's cached
	// translations, and step mepc past the wfi the wake re-executes.
	p.Li(30, rvIPIClearPA)
	p.Li(31, 1)
	p.Sd(31, 30, 0)
	p.SfenceVma()
	p.Csrr(30, rv64.CSRMepc)
	p.Addi(30, 30, 4)
	p.Csrw(rv64.CSRMepc, 30)
	p.Mret()

	p.Label("m_exit")
	p.Csrw(rv64.CSRMtvec, asm.X0) // no vector: the next ecall halts
	p.Ecall()

	golden := runSMPDirected(t, p)
	if got := xreg(golden, 1, 10); got != sentinelA {
		t.Errorf("hart 1 pre-shootdown load = %#x, want %#x", got, uint64(sentinelA))
	}
	if got := xreg(golden, 1, 11); got != sentinelB {
		t.Errorf("hart 1 post-sfence load = %#x, want %#x (stale translation survived)",
			got, uint64(sentinelB))
	}
}
