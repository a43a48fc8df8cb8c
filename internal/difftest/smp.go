package difftest

// The SMP differential lane (CheckSMP): seeded random two-hart RV64
// programs — one image, dispatched on mhartid — where each hart runs the
// user lane's construct set over its own buffers and stack, plus peer loads
// from the sibling's buffer whose values depend on exactly how far the
// sibling has run. Every engine drives the harts with the deterministic
// round-robin scheduler (internal/smp) at the same quantum over the same
// shared virtual clock, so the interleaving — and with it every peer load,
// register file, memory window, per-hart retired count and exit code — must
// be bit-identical across the interpreter cluster, the Captive DBT at O1–O4
// and the QEMU baseline.

import (
	"math/rand"

	"captive/internal/guest/rv64"
	"captive/internal/guest/rv64/asm"
)

// SMPHarts and SMPQuantum fix the lane's topology: hart count and scheduler
// quantum are part of the compared behaviour, so every engine uses the same
// values.
const (
	SMPHarts   = 2
	SMPQuantum = 512
)

// Hart 1's private memory map (hart 0 keeps the user lane's). The probed
// window spans both harts' buffers; each stack gets its own window.
const (
	RVSMPBuf0H1  = 0x220000
	RVSMPBuf1H1  = 0x230000
	RVSMPStackH1 = 0x340000

	RVSMPProbeStart   = RVProbeStart // 0x1FF000: hart 0 buffers ...
	RVSMPProbeEnd     = RVSMPBuf1H1 + 0x1000
	RVSMPStackH1Probe = RVSMPStackH1 - 0x1000
	RVSMPStackH1End   = RVSMPStackH1 + 0x1000
)

// GenerateRV64SMP builds a random two-hart RV64 program from a seed: one
// image whose entry reads mhartid and branches, then one independent
// prologue+body+ecall section per hart (over disjoint buffers, with peer
// loads into the sibling's). One generator emits both sections, so labels
// stay unique and the construct stream deterministic.
func GenerateRV64SMP(seed int64, ops int) (*Program, error) {
	rng := rand.New(rand.NewSource(seed))
	p := asm.New(RVOrg)
	g := &rvGenerator{rng: rng, p: p}
	// beq has only conditional-branch range; the hart 1 section sits past
	// it, so dispatch through a full-range jal.
	p.Csrr(rvAddr, rv64.CSRMhartid)
	p.Beq(rvAddr, asm.X0, "smp_hart0")
	p.Jal(asm.X0, "smp_hart1")
	p.Label("smp_hart0")

	g.buf0, g.buf1, g.stackTop, g.peer = RVBuf0, RVBuf1, RVStackTop, RVSMPBuf0H1
	g.prologue()
	for i := 0; i < ops; i++ {
		g.construct()
	}
	p.Ecall()
	g.epilogue()

	g.fns = nil // hart 1 gets its own function pool
	p.Label("smp_hart1")
	g.buf0, g.buf1, g.stackTop, g.peer = RVSMPBuf0H1, RVSMPBuf1H1, RVSMPStackH1, RVBuf0
	g.prologue()
	for i := 0; i < ops; i++ {
		g.construct()
	}
	p.Ecall()
	g.epilogue()

	img, err := p.Assemble()
	if err != nil {
		return nil, err
	}
	return &Program{Seed: seed, Ops: ops, Image: img}, nil
}
