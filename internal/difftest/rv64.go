package difftest

// The RV64 differential-testing lane: the retargetability loop-closer. A
// seeded random RV64I+M program generator plus a harness that runs each
// program through the unified reference interpreter via rv64.Port (the
// golden model), the Captive DBT across offline levels O1–O4 and the
// QEMU-style baseline, asserting bit-identical x-registers, memory windows
// and instruction counts — the same contract the GA64 lane enforces,
// proving the engines are guest-agnostic end to end.

import (
	"math/rand"
	"strconv"

	"captive/internal/guest/rv64"
	"captive/internal/guest/rv64/asm"
)

// Guest memory map for generated RV64 programs. Load/store offsets are
// 12-bit signed, so ±4 KiB probe windows around each base register cover
// every reachable address.
const (
	RVOrg      = Org      // program load/entry address
	RVBuf0     = 0x200000 // x5 data buffer base
	RVBuf1     = 0x210000 // x6 data buffer base
	RVStackTop = 0x300000 // x2 (sp)

	RVProbeStart = RVBuf0 - 0x1000
	RVProbeEnd   = RVBuf1 + 0x1000
	RVStackProbe = RVStackTop - 0x1000
	RVStackEnd   = RVStackTop + 0x1000
)

// Register conventions inside generated RV64 programs.
const (
	rvBase0  = 5  // x5 = RVBuf0
	rvBase1  = 6  // x6 = RVBuf1
	rvIdx    = 7  // bounded index (0..255), written only by li
	rvMinDst = 10 // destinations drawn from [x10, x27]
	rvMaxDst = 27
	rvConst  = 28 // random seeded constant
	rvCtr    = 29 // bounded-loop counter
	rvAddr   = 30 // scratch for computed addresses
)

// rvNopWord is addi x0, x0, 0 — the minimizer's replacement word.
const rvNopWord = 0x00000013

// rv64NZCVOff returns the flags-byte offset in the RV64 register file.
func rv64NZCVOff() int {
	return rv64.MustModule().Registry.Bank("NZCV").Offset
}

// --- generator ---------------------------------------------------------------

// GenerateRV64 builds a random RV64I+M program from a seed. The prologue
// seeds every architectural register deterministically; the body is ops
// random constructs (straight-line instructions, forward branches, bounded
// loops, calls); the program always terminates with ecall.
func GenerateRV64(seed int64, ops int) (*Program, error) {
	rng := rand.New(rand.NewSource(seed))
	p := asm.New(RVOrg)
	g := &rvGenerator{rng: rng, p: p, buf0: RVBuf0, buf1: RVBuf1, stackTop: RVStackTop}

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

type rvGenerator struct {
	rng *rand.Rand
	p   *asm.Program

	// buf0/buf1/stackTop parameterize the prologue's memory map so the SMP
	// lane can give each hart disjoint buffers; peer is the sibling hart's
	// buffer base (0: no peer-load construct, the uniprocessor lanes).
	buf0, buf1, stackTop, peer uint64

	labels int
	fns    []string
}

func (g *rvGenerator) label(prefix string) string {
	g.labels++
	return prefix + "_" + strconv.Itoa(g.labels)
}

// dst draws a destination register; occasionally x0, so the hardwired-zero
// write-drop is exercised through every engine.
func (g *rvGenerator) dst() asm.Reg {
	if g.rng.Intn(16) == 0 {
		return asm.X0
	}
	return asm.Reg(rvMinDst + g.rng.Intn(rvMaxDst-rvMinDst+1))
}

// src draws a source register: usually a destination-range register, with
// occasional reads of x0 and the special-role registers (always defined).
func (g *rvGenerator) src() asm.Reg {
	if g.rng.Intn(8) == 0 {
		return []asm.Reg{asm.X0, asm.RA, asm.SP, rvBase0, rvBase1, rvIdx, rvConst, rvCtr}[g.rng.Intn(8)]
	}
	return asm.Reg(rvMinDst + g.rng.Intn(rvMaxDst-rvMinDst+1))
}

// bufAddr picks a base register and a signed 12-bit offset inside the
// probed data windows. Usually the offset is aligned to the access width,
// but some draws keep it raw (misaligned accesses take the engines' slow
// paths) or land it within a word of the page-aligned base (wide accesses
// then straddle the page boundary — physically contiguous on every engine).
func (g *rvGenerator) bufAddr(align int32) (asm.Reg, int32) {
	base := []asm.Reg{rvBase0, rvBase1, asm.SP}[g.rng.Intn(3)]
	off := int32(g.rng.Intn(1<<12)) - 1<<11 // [-2048, 2047]
	switch g.rng.Intn(8) {
	case 0:
		// Misaligned: keep the raw offset.
	case 1:
		// Page-straddling: within a word of the base.
		off = int32(g.rng.Intn(16)) - 8
	default:
		off &^= align - 1
	}
	return base, off
}

func (g *rvGenerator) imm12() int32 { return int32(g.rng.Intn(1<<12)) - 1<<11 }

// prologue seeds every architectural register deterministically.
func (g *rvGenerator) prologue() {
	p, rng := g.p, g.rng
	p.Li(rvBase0, g.buf0)
	p.Li(rvBase1, g.buf1)
	p.Li(asm.SP, g.stackTop)
	p.Li(asm.RA, RVOrg) // defined; overwritten by jal before any ret
	for r := asm.Reg(rvMinDst); r <= rvMaxDst; r++ {
		p.Li(r, rng.Uint64()>>(uint(rng.Intn(5))*13))
	}
	p.Li(rvIdx, uint64(rng.Intn(256)))
	p.Li(rvConst, rng.Uint64())
	p.Li(rvCtr, 0)
	p.Li(rvAddr, g.buf0)
	// x3, x4, x8, x9 (gp/tp/s0/s1 in the ABI) get small seeds too: they are
	// plain registers to the model and legal sources.
	p.Li(3, uint64(rng.Intn(1<<16)))
	p.Li(4, uint64(rng.Intn(1<<16)))
	p.Li(8, rng.Uint64()>>32)
	p.Li(9, rng.Uint64()>>16)
}

// epilogue emits the bodies of any functions the stream called.
func (g *rvGenerator) epilogue() {
	for _, fn := range g.fns {
		g.p.Label(fn)
		for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
			g.simpleOp()
		}
		g.p.Ret()
	}
}

// construct emits one random construct.
func (g *rvGenerator) construct() {
	switch g.rng.Intn(32) {
	case 0, 1:
		g.forwardBranch()
	case 2, 3:
		g.boundedLoop()
	case 4, 5:
		g.call()
	case 6:
		g.smcCross()
	case 7:
		if g.peer != 0 {
			g.peerLoad()
		} else {
			g.simpleOp()
		}
	default:
		g.simpleOp()
	}
}

// rvAddiWord encodes addi rd, rs1, imm — the patch word smcCross stores
// over translated code.
func rvAddiWord(rd, rs1 asm.Reg, imm int32) uint32 {
	return uint32(imm&0xFFF)<<20 | uint32(rs1)<<15 | uint32(rd)<<7 | 0x13
}

// smcCross emits a cross-page self-modifying-code sequence: a two-word stub
// aligned to start exactly at a page boundary, executed once, then patched
// by an 8-byte store that *straddles* the boundary (its low half rewrites
// the pad word before the stub, its high half the stub's addi), and executed
// again. Detecting that write requires SMC tracking on the second page of a
// crossing store — the case this construct pins across every engine.
func (g *rvGenerator) smcCross() {
	p := g.p
	acc := asm.Reg(rvMinDst + g.rng.Intn(rvMaxDst-rvMinDst+1))
	k0 := int32(g.rng.Intn(1024))
	k1 := int32(g.rng.Intn(1024))
	stub := g.label("smcstub")
	skip := g.label("smcskip")
	p.Jal(asm.X0, skip)
	for p.PC()&0xFFF != 0xFFC {
		p.Nop()
	}
	p.Nop() // the word the crossing store's low half rewrites (with a nop)
	p.Label(stub)
	p.Addi(acc, acc, k0)
	p.Ret()
	p.Label(skip)
	p.Jal(asm.RA, stub) // translate and run the stub
	p.La(rvAddr, stub)
	p.Addi(rvAddr, rvAddr, -4)
	p.Li(rvCtr, uint64(rvAddiWord(acc, acc, k1))<<32|uint64(rvNopWord))
	p.Sd(rvCtr, rvAddr, 0) // page-crossing store over the stub
	p.Jal(asm.RA, stub)    // must observe k1, not stale code
}

// peerLoad reads the sibling hart's data buffer: the loaded value depends on
// how far the sibling has run, so any scheduling divergence between engines
// surfaces as a register difference (SMP lane only).
func (g *rvGenerator) peerLoad() {
	p := g.p
	p.Li(rvAddr, g.peer+uint64(g.rng.Intn(512))*8)
	p.Ld(g.dst(), rvAddr, 0)
}

func (g *rvGenerator) forwardBranch() {
	p := g.p
	l := g.label("fwd")
	a, b := g.src(), g.src()
	switch g.rng.Intn(6) {
	case 0:
		p.Beq(a, b, l)
	case 1:
		p.Bne(a, b, l)
	case 2:
		p.Blt(a, b, l)
	case 3:
		p.Bge(a, b, l)
	case 4:
		p.Bltu(a, b, l)
	default:
		p.Bgeu(a, b, l)
	}
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		g.simpleOp()
	}
	p.Label(l)
}

func (g *rvGenerator) boundedLoop() {
	p := g.p
	l := g.label("loop")
	p.Li(rvCtr, uint64(1+g.rng.Intn(8)))
	p.Label(l)
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		g.simpleOp()
	}
	p.Addi(rvCtr, rvCtr, -1)
	p.Bne(rvCtr, asm.X0, l)
}

func (g *rvGenerator) call() {
	if len(g.fns) == 0 || g.rng.Intn(2) == 0 {
		g.fns = append(g.fns, g.label("fn"))
	}
	g.p.Jal(asm.RA, g.fns[g.rng.Intn(len(g.fns))])
}

// simpleOp emits one straight-line instruction (no control flow).
func (g *rvGenerator) simpleOp() {
	p, rng := g.p, g.rng
	rd, rs1, rs2 := g.dst(), g.src(), g.src()
	switch rng.Intn(20) {
	case 0:
		switch rng.Intn(5) {
		case 0:
			p.Add(rd, rs1, rs2)
		case 1:
			p.Sub(rd, rs1, rs2)
		case 2:
			p.Xor(rd, rs1, rs2)
		case 3:
			p.Or(rd, rs1, rs2)
		default:
			p.And(rd, rs1, rs2)
		}
	case 1:
		switch rng.Intn(3) {
		case 0:
			p.Sll(rd, rs1, rs2)
		case 1:
			p.Srl(rd, rs1, rs2)
		default:
			p.Sra(rd, rs1, rs2)
		}
	case 2:
		if rng.Intn(2) == 0 {
			p.Slt(rd, rs1, rs2)
		} else {
			p.Sltu(rd, rs1, rs2)
		}
	case 3: // M extension: full multiply group incl. high halves
		switch rng.Intn(4) {
		case 0:
			p.Mul(rd, rs1, rs2)
		case 1:
			p.Mulh(rd, rs1, rs2)
		case 2:
			p.Mulhsu(rd, rs1, rs2)
		default:
			p.Mulhu(rd, rs1, rs2)
		}
	case 4: // M extension: divide group (zero divisors arise naturally)
		switch rng.Intn(4) {
		case 0:
			p.Div(rd, rs1, rs2)
		case 1:
			p.Divu(rd, rs1, rs2)
		case 2:
			p.Rem(rd, rs1, rs2)
		default:
			p.Remu(rd, rs1, rs2)
		}
	case 5: // 32-bit (W) forms
		switch rng.Intn(6) {
		case 0:
			p.Addw(rd, rs1, rs2)
		case 1:
			p.Subw(rd, rs1, rs2)
		case 2:
			p.Sllw(rd, rs1, rs2)
		case 3:
			p.Srlw(rd, rs1, rs2)
		case 4:
			p.Sraw(rd, rs1, rs2)
		default:
			p.Mulw(rd, rs1, rs2)
		}
	case 6:
		switch rng.Intn(6) {
		case 0:
			p.Addi(rd, rs1, g.imm12())
		case 1:
			p.Slti(rd, rs1, g.imm12())
		case 2:
			p.Sltiu(rd, rs1, g.imm12())
		case 3:
			p.Xori(rd, rs1, g.imm12())
		case 4:
			p.Ori(rd, rs1, g.imm12())
		default:
			p.Andi(rd, rs1, g.imm12())
		}
	case 7:
		switch rng.Intn(3) {
		case 0:
			p.Slli(rd, rs1, uint32(rng.Intn(64)))
		case 1:
			p.Srli(rd, rs1, uint32(rng.Intn(64)))
		default:
			p.Srai(rd, rs1, uint32(rng.Intn(64)))
		}
	case 8:
		switch rng.Intn(4) {
		case 0:
			p.Addiw(rd, rs1, g.imm12())
		case 1:
			p.Slliw(rd, rs1, uint32(rng.Intn(32)))
		case 2:
			p.Srliw(rd, rs1, uint32(rng.Intn(32)))
		default:
			p.Sraiw(rd, rs1, uint32(rng.Intn(32)))
		}
	case 9:
		p.Lui(rd, uint32(rng.Intn(1<<20)))
	case 10: // auipc exercises the translation-time PC constant folding
		p.Auipc(rd, uint32(rng.Intn(1<<8)))
	case 11: // 64-bit load/store
		base, off := g.bufAddr(8)
		if rng.Intn(2) == 0 {
			p.Ld(rd, base, off)
		} else {
			p.Sd(rs1, base, off)
		}
	case 12: // narrow loads (zero- and sign-extending)
		base, off := g.bufAddr(4)
		switch rng.Intn(5) {
		case 0:
			p.Lw(rd, base, off)
		case 1:
			p.Lwu(rd, base, off)
		case 2:
			p.Lh(rd, base, off&^1)
		case 3:
			p.Lhu(rd, base, off&^1)
		default:
			p.Lb(rd, base, off)
		}
	case 13: // narrow stores and the unsigned byte load
		base, off := g.bufAddr(4)
		switch rng.Intn(4) {
		case 0:
			p.Sw(rs1, base, off)
		case 1:
			p.Sh(rs1, base, off&^1)
		case 2:
			p.Sb(rs1, base, off)
		default:
			p.Lbu(rd, base, off)
		}
	case 14: // indexed addressing through the bounded index register
		p.Slli(rvAddr, rvIdx, 3)
		p.Add(rvAddr, []asm.Reg{rvBase0, rvBase1}[rng.Intn(2)], rvAddr)
		if rng.Intn(2) == 0 {
			p.Ld(rd, rvAddr, 0)
		} else {
			p.Sd(rs1, rvAddr, 0)
		}
	case 15: // refresh the index register (keeps indexed accesses bounded)
		p.Li(rvIdx, uint64(rng.Intn(256)))
	case 16:
		p.Fence()
	case 17:
		p.Nop()
	default:
		p.Mv(rd, rs1)
	}
}
