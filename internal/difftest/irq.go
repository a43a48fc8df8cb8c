package difftest

// The interrupt-injection differential lane (both guests): seeded random
// programs that program the platform timer through MMIO, enable interrupts
// through the guest's own control state, mix WFI and straight-line work,
// and take vectored timer (and software) interrupts — all swept across the
// unified reference interpreter, the Captive DBT at O1–O4 and the
// QEMU-style baseline with bit-identical register files, memory windows,
// CSRs and instruction counts. Interrupt arrival is driven by simulated
// virtual time (retired instructions plus WFI idle-skip), never host time,
// so the arrival pc, the retired count at delivery and the trap-state CSRs
// are part of the compared contract: if any engine injects one interrupt
// one block early or late, the signature accumulators diverge and the
// minimizer produces a reproducer.

import (
	"math/rand"

	"captive/internal/device"
	"captive/internal/guest/ga64"
	gasm "captive/internal/guest/ga64/asm"
	"captive/internal/guest/rv64"
	"captive/internal/guest/rv64/asm"
)

// Timer MMIO guest-physical base (DeviceBase + the bus's timer window) —
// the same value for both guests, but spelled per-guest to keep the
// port-layer separation honest.
const (
	gaTimerPA = ga64.DeviceBase + 0x1000
	rvTimerPA = rv64.DeviceBase + 0x1000
)

// gaSig is the in-memory signature block of the GA64 IRQ lane: one cell
// accumulating handler-observed state (ELR, SPSR, ISR, CNTVCT at each
// delivery) and one counting deliveries. It sits inside the probed data
// window, above every offset the body can form from X1.
const (
	gaSig      = Buf1 + 0x2000
	gaSigCount = gaSig + 8
)

// --- GA64 generator ----------------------------------------------------------

// GenerateIRQ builds a random GA64 interrupt-lane program from a seed. The
// prologue arms the timer a short virtual-time distance ahead and enables
// the line through IRQEN; the body mixes the user lane's construct set with
// WFI, timer re-arms, enable/mask toggles and reads of the counter and
// interrupt-status registers; the handler image carries a real vector
// table whose IRQ slot folds the trap state into the signature block,
// advances the compare register and disables the timer after a seeded
// delivery budget, so every stream terminates.
func GenerateIRQ(seed int64, ops int) (*Program, error) {
	rng := rand.New(rand.NewSource(seed))
	p := gasm.New(Org)
	g := &gaIRQGenerator{generator: generator{rng: rng, p: p}}
	delta := uint32(60 + rng.Intn(240))
	limit := uint32(4 + rng.Intn(12))

	g.irqPrologue()
	for i := 0; i < ops; i++ {
		g.irqConstruct()
	}
	p.Hlt(0)
	g.epilogue()
	img, err := p.Assemble()
	if err != nil {
		return nil, err
	}

	himg, err := gaIRQHandler(delta, limit)
	if err != nil {
		return nil, err
	}
	return &Program{Seed: seed, Ops: ops, Image: img, Handler: himg}, nil
}

type gaIRQGenerator struct {
	generator
}

// irqPrologue extends the user lane's register seeding with the interrupt
// plumbing: a cleared signature block, an armed timer and an enabled line.
func (g *gaIRQGenerator) irqPrologue() {
	p, rng := g.p, g.rng
	g.prologue()
	cmp0 := uint64(30 + rng.Intn(300))

	p.MovI(2, gaSig)
	p.Movz(3, 0, 0)
	p.Str(3, 2, 0)
	p.Str(3, 2, 8)
	p.MovI(2, gaTimerPA)
	p.MovI(3, cmp0)
	p.Str(3, 2, device.TimerCmp)
	p.MovI(3, 1)
	p.Str(3, 2, device.TimerCtrl)
	p.Msr(ga64.SysIRQEN, 3)
	p.CmpI(2, 1) // defined flags after the plumbing clobbered x2/x3
}

// irqConstruct emits one body construct: the user lane's set most of the
// time, with interrupt traffic mixed in. The toggles are biased towards
// the delivering state so most programs take several interrupts.
func (g *gaIRQGenerator) irqConstruct() {
	p, rng := g.p, g.rng
	switch rng.Intn(10) {
	case 0:
		p.Wfi()
	case 1: // re-arm the compare register a short virtual-time step ahead
		p.Mrs(2, ga64.SysCNTVCT)
		p.AddI(2, 2, uint32(16+rng.Intn(360)))
		p.MovI(3, gaTimerPA)
		p.Str(2, 3, device.TimerCmp)
	case 2: // timer enable toggle, biased on
		en := uint64(1)
		if rng.Intn(4) == 0 {
			en = 0
		}
		p.MovI(2, gaTimerPA)
		p.MovI(3, en)
		p.Str(3, 2, device.TimerCtrl)
	case 3: // PSTATE.I analog toggle, biased unmasked
		v := uint64(0)
		if rng.Intn(3) == 0 {
			v = 1
		}
		p.MovI(2, v)
		p.Msr(ga64.SysDAIF, 2)
	case 4: // line-enable toggle, biased enabled
		v := uint64(1)
		if rng.Intn(4) == 0 {
			v = 0
		}
		p.MovI(2, v)
		p.Msr(ga64.SysIRQEN, 2)
	case 5: // fold counter/interrupt state into a compared register
		regs := []uint32{ga64.SysCNTVCT, ga64.SysISR, ga64.SysIRQEN, ga64.SysDAIF}
		p.Mrs(g.dst(), regs[rng.Intn(len(regs))])
	default:
		g.construct()
	}
}

// gaIRQHandler assembles the vector-table image loaded at HandlerBase: the
// sync-same slot bounces SVCs like the user lane, the IRQ-same slot runs
// the real handler, and the lower-EL slots halt loudly (generated code
// never leaves EL1). The handler is deliberately not register-transparent:
// x2–x4 are ordinary destination registers to the body, and since arrival
// is bit-identical across engines by construction, their post-interrupt
// values are too.
func gaIRQHandler(delta, limit uint32) ([]byte, error) {
	h := gasm.New(HandlerBase)
	pad := func(n int) {
		for i := 0; i < n; i++ {
			h.Nop()
		}
	}
	h.Eret() // +0x000: EL1 sync (SVC round-trip)
	pad(31)
	h.B("virq") // +0x080: EL1 IRQ
	pad(31)
	h.Hlt(0xF2) // +0x100: EL0 sync (unused)
	pad(31)
	h.Hlt(0xF3) // +0x180: EL0 IRQ (unused)

	h.Label("virq")
	// Fold the trap state into the signature cell.
	h.MovI(2, gaSig)
	h.Ldr(3, 2, 0)
	h.Lsl(3, 3, 3)
	h.Mrs(4, ga64.SysELR)
	h.Add(3, 3, 4)
	h.Mrs(4, ga64.SysSPSR)
	h.Add(3, 3, 4)
	h.Mrs(4, ga64.SysISR)
	h.Add(3, 3, 4)
	h.Mrs(4, ga64.SysCNTVCT)
	h.Add(3, 3, 4)
	h.Str(3, 2, 0)
	// Count the delivery.
	h.Ldr(3, 2, 8)
	h.AddI(3, 3, 1)
	h.Str(3, 2, 8)
	// Advance the compare register past now, dropping the line.
	h.Mrs(4, ga64.SysCNTVCT)
	h.AddI(4, 4, delta)
	h.MovI(2, gaTimerPA)
	h.Str(4, 2, device.TimerCmp)
	// Past the delivery budget, disable the timer so the stream terminates.
	h.MovI(4, gaSigCount)
	h.Ldr(4, 4, 0)
	h.CmpI(4, limit)
	h.BCond(ga64.CondLT, "virq_ret")
	h.Movz(4, 0, 0)
	h.Str(4, 2, device.TimerCtrl)
	h.Label("virq_ret")
	h.Eret()
	return h.Assemble()
}

// --- RV64 lane ---------------------------------------------------------------

// rvirqSnapshot extends the sys lane's CSR snapshot with the interrupt
// CSRs; rvsysCSRNames carries the matching names.
func rvirqSnapshot(s *rv64.Sys) []uint64 {
	return append(rvsysSnapshot(s), s.Mideleg, s.Mie, s.Mip)
}

// --- RV64 generator ----------------------------------------------------------

// GenerateRV64IRQ builds a random RV64 interrupt-lane program from a seed.
// The M-mode prologue installs mtvec (and, in the supervisor flavour,
// stvec plus a random mideleg subset), picks a random interrupt-enable
// set with the machine timer always enabled, arms the timer through MMIO
// and mrets into an M- or S-mode body. The body mixes the user lane's
// construct set with WFI, timer re-arms, software-interrupt sets,
// mstatus/sstatus mask toggles and reads of the pending state; the
// handlers fold cause/epc/pending into the x4 signature, re-arm the timer
// and disable it after a seeded delivery budget. The sentinel-ecall exit
// protocol is the sys lane's.
func GenerateRV64IRQ(seed int64, ops int) (*Program, error) {
	rng := rand.New(rand.NewSource(seed))
	p := asm.New(RVOrg)
	g := &rvIRQGenerator{
		rvGenerator: rvGenerator{rng: rng, p: p, buf0: RVBuf0, buf1: RVBuf1, stackTop: RVStackTop},
		super:       rng.Intn(2) == 1,
		delta:       int32(100 + rng.Intn(900)),
		limit:       int64(3 + rng.Intn(10)),
	}
	if g.super {
		// Delegate a random subset of the supervisor interrupts; MTI is
		// non-delegatable by construction (MidelegMask).
		if rng.Intn(2) == 1 {
			g.mideleg |= rv64.MipSSIP
		}
		if rng.Intn(2) == 1 {
			g.mideleg |= rv64.MipSTIP
		}
	}

	g.irqPrologue()
	p.Label("body")
	for i := 0; i < ops; i++ {
		g.irqConstruct()
	}
	p.Li(31, rvSentinel)
	p.Ecall()
	g.irqHandlers()
	g.epilogue()

	img, err := p.Assemble()
	if err != nil {
		return nil, err
	}
	return &Program{Seed: seed, Ops: ops, Image: img}, nil
}

type rvIRQGenerator struct {
	rvGenerator
	super   bool   // body runs in S-mode (else M-mode)
	mideleg uint64 // delegated interrupt mask (S flavour only)
	delta   int32  // handler re-arm distance in virtual time
	limit   int64  // delivery budget before the handler kills the timer
}

// irqPrologue emits the M-mode boot: registers, vectors, interrupt
// enables, the armed timer, and the mret that drops into the body.
func (g *rvIRQGenerator) irqPrologue() {
	p, rng := g.p, g.rng

	// Register seeding: the user lane's conventions, with x4 repurposed as
	// the trap-signature accumulator, x3 as the delivery counter and x31
	// reserved for the exit sentinel.
	g.prologue()
	p.Li(4, 0)
	p.Li(3, 0)
	p.Li(31, 0)

	p.La(30, "mtrap")
	p.Csrw(rv64.CSRMtvec, 30)
	if g.super {
		p.La(30, "strap")
		p.Csrw(rv64.CSRStvec, 30)
		p.Li(30, g.mideleg)
		p.Csrw(rv64.CSRMideleg, 30)
	}

	// Interrupt enables: the machine timer always, the supervisor pair at
	// random (they gate the software-interrupt constructs).
	mie := uint64(rv64.MipMTIP)
	if rng.Intn(2) == 1 {
		mie |= rv64.MipSSIP
	}
	if rng.Intn(2) == 1 {
		mie |= rv64.MipSTIP
	}
	p.Li(30, mie)
	p.Csrw(rv64.CSRMie, 30)

	// Arm the timer a short virtual-time distance ahead.
	p.Li(30, rvTimerPA)
	p.Li(29, uint64(40+rng.Intn(400)))
	p.Sd(29, 30, device.TimerCmp)
	p.Li(29, 1)
	p.Sd(29, 30, device.TimerCtrl)
	p.Li(29, 0) // restore the loop counter's seed

	// Drop into the body. The M flavour re-enters M with MPIE so mret
	// turns MIE on; the S flavour gets a random initial SIE (MTI is
	// deliverable from S regardless — the mode gate, not the SIE bit,
	// opens machine interrupts below M).
	var status uint64
	if g.super {
		status = uint64(rv64.PrivS) << rv64.MstatusMPPShift
		if rng.Intn(2) == 1 {
			status |= rv64.MstatusSIE
		}
	} else {
		status = uint64(rv64.PrivM)<<rv64.MstatusMPPShift | rv64.MstatusMPIE
	}
	p.Li(30, status)
	p.Csrw(rv64.CSRMstatus, 30)
	p.La(30, "body")
	p.Csrw(rv64.CSRMepc, 30)
	p.Mret()
}

// irqConstruct emits one body construct: the user lane's set most of the
// time, with interrupt traffic mixed in — always through the CSRs the
// body's privilege level may touch, so no construct hides behind an
// illegal-instruction skip.
func (g *rvIRQGenerator) irqConstruct() {
	p, rng := g.p, g.rng
	switch rng.Intn(10) {
	case 0:
		p.Wfi()
	case 1: // re-arm cmp a short step past the current count
		d := g.dst()
		p.Li(30, rvTimerPA)
		p.Ld(d, 30, device.TimerCount)
		p.Addi(d, d, int32(16+rng.Intn(1500)))
		p.Sd(d, 30, device.TimerCmp)
	case 2: // timer enable toggle, biased on
		p.Li(30, rvTimerPA)
		if rng.Intn(4) == 0 {
			p.Sd(asm.X0, 30, device.TimerCtrl)
		} else {
			d := asm.Reg(rvMinDst + rng.Intn(rvMaxDst-rvMinDst+1))
			p.Li(d, 1)
			p.Sd(d, 30, device.TimerCtrl)
		}
	case 3: // software-interrupt set (mode-appropriate pending CSR)
		if g.super {
			// sip exposes SSIP alone, and only when delegated — a
			// non-delegated write is a WARL no-op, itself worth pinning.
			p.Li(30, rv64.MipSSIP)
			p.Csrrs(asm.X0, rv64.CSRSip, 30)
		} else {
			bits := uint64(rv64.MipSSIP)
			if rng.Intn(2) == 1 {
				bits |= rv64.MipSTIP
			}
			p.Li(30, bits)
			p.Csrrs(asm.X0, rv64.CSRMip, 30)
		}
	case 4: // global interrupt-mask toggle, biased enabled
		set := rng.Intn(3) != 0
		if g.super {
			p.Li(30, rv64.MstatusSIE)
			if set {
				p.Csrrs(asm.X0, rv64.CSRSstatus, 30)
			} else {
				p.Csrrc(asm.X0, rv64.CSRSstatus, 30)
			}
		} else {
			p.Li(30, rv64.MstatusMIE)
			if set {
				p.Csrrs(asm.X0, rv64.CSRMstatus, 30)
			} else {
				p.Csrrc(asm.X0, rv64.CSRMstatus, 30)
			}
		}
	case 5: // fold the pending state into a compared register
		if g.super {
			p.Csrr(g.dst(), rv64.CSRSip)
		} else {
			p.Csrr(g.dst(), rv64.CSRMip)
		}
	case 6: // read the virtual time through the MMIO counter
		p.Li(30, rvTimerPA)
		p.Ld(g.dst(), 30, device.TimerCount)
	default:
		g.construct()
	}
}

// irqHandlers emits the M-mode trap handler — an interrupt path (fold,
// count, clear software bits, re-arm, budget) branched off the mcause sign
// bit, and the sys lane's synchronous path with the sentinel exit — plus
// the S-mode handler for delegated supervisor interrupts. The handlers
// clobber x8 and x30 (never x29: a wild loop counter could break
// termination); both are dead to the body's constructs and their
// post-interrupt values are bit-identical across engines because arrival
// is.
func (g *rvIRQGenerator) irqHandlers() {
	p := g.p

	p.Label("mtrap")
	p.Csrrw(30, rv64.CSRMscratch, 30) // scratch-swap traffic through traps
	p.Csrr(30, rv64.CSRMcause)
	p.Bge(30, asm.X0, "msync")
	// Interrupt path: fold cause, epc and the pending set at entry.
	p.Slli(4, 4, 3)
	p.Add(4, 4, 30)
	p.Csrr(30, rv64.CSRMepc)
	p.Add(4, 4, 30)
	p.Csrr(30, rv64.CSRMip)
	p.Add(4, 4, 30)
	p.Addi(3, 3, 1)
	// Clear the software-pending bits (MTIP is line-driven, read-only).
	p.Li(30, rv64.MipSSIP|rv64.MipSTIP)
	p.Csrrc(asm.X0, rv64.CSRMip, 30)
	// Re-arm the compare register past now, dropping the line.
	p.Li(8, rvTimerPA)
	p.Ld(30, 8, device.TimerCount)
	p.Addi(30, 30, g.delta)
	p.Sd(30, 8, device.TimerCmp)
	// Past the delivery budget, disable the timer so the stream terminates.
	p.Li(30, uint64(g.limit))
	p.Blt(3, 30, "mirq_ret")
	p.Sd(asm.X0, 8, device.TimerCtrl)
	p.Label("mirq_ret")
	p.Mret()

	// Synchronous path: the sys lane's fold/skip/sentinel protocol.
	p.Label("msync")
	p.Slli(4, 4, 3)
	p.Add(4, 4, 30)
	p.Csrr(30, rv64.CSRMtval)
	p.Add(4, 4, 30)
	p.Csrr(30, rv64.CSRMepc)
	p.Addi(30, 30, 4) // skip the trapping instruction
	p.Csrw(rv64.CSRMepc, 30)
	p.Li(30, rvSentinel)
	p.Bne(31, 30, "msync_ret")
	p.Csrw(rv64.CSRMtvec, asm.X0) // no vector: the next ecall exits cleanly
	p.Ecall()
	p.Label("msync_ret")
	p.Mret()

	if !g.super {
		return
	}
	p.Label("strap")
	p.Csrrw(30, rv64.CSRSscratch, 30)
	p.Csrr(30, rv64.CSRScause)
	p.Slli(4, 4, 3)
	p.Add(4, 4, 30)
	p.Csrr(30, rv64.CSRSepc)
	p.Add(4, 4, 30)
	// Clear the delegated software interrupt (the only delegated source
	// that can be pending: STIP is never set in the S flavour).
	p.Li(30, rv64.MipSSIP)
	p.Csrrc(asm.X0, rv64.CSRSip, 30)
	p.Sret()
}
