package main

// Guest programs of the four workloads. Every generated part comes from the
// seed, but the *shape* of a program — block count, block-length histogram,
// terminator mix and how often each block runs — is fixed, so a held-out seed
// measures the same thing as the default one (see shape_test.go).

import (
	"fmt"
	"math/rand"

	"captive/internal/bench"
	"captive/internal/device"
	"captive/internal/guest/ga64"
	gasm "captive/internal/guest/ga64/asm"
	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
)

// segment is one piece of a guest image: the first segment of a program is
// loaded with LoadImage (which also sets the entry PC), the rest with
// LoadUser.
type segment struct {
	data []byte
	pa   uint64
}

// program is one guest program: what a single operation runs on one engine.
type program struct {
	name  string
	guest string // "ga64" or "rv64"
	harts int    // 1, or 2 for smp2
	segs  []segment
	entry uint64
	sums  []int // checksum registers compared against the reference
}

const (
	rvEntry = 0x1000
	// budget is the deci-cycle budget of every Run call: 60 simulated
	// seconds, never reached by a healthy run.
	budget = 600_000_000_000
)

// newRand is the generator every seeded part of a workload draws from.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// --- steady -----------------------------------------------------------------

// steadyPrograms is the fixed hot-code set: the mini-OS running the
// 400.perlbench-shaped kernel (the row whose MIPS drifted across BENCH files)
// and the RV64 memsum kernel, where Captive runs slower than the baseline.
func steadyPrograms() ([]*program, error) {
	w, ok := bench.ByName("400.perlbench")
	if !ok {
		return nil, fmt.Errorf("steady: 400.perlbench is missing")
	}
	img, err := bench.BuildSystemImage(w.Build())
	if err != nil {
		return nil, err
	}
	perl := &program{
		name: "ga64/400.perlbench", guest: "ga64", harts: 1,
		segs:  []segment{{img.Kernel, bench.KernelBase}, {img.User, img.UserPA}},
		entry: img.Entry,
		sums:  []int{0, 1},
	}
	var memsum *program
	for _, rw := range bench.RVWorkloads() {
		if rw.Name != "rv64.memsum" {
			continue
		}
		code, err := rw.Build().Assemble()
		if err != nil {
			return nil, err
		}
		memsum = &program{
			name: "rv64/memsum", guest: "rv64", harts: 1,
			segs:  []segment{{code, rvEntry}},
			entry: rvEntry,
			sums:  []int{10, 11},
		}
	}
	if memsum == nil {
		return nil, fmt.Errorf("steady: rv64.memsum is missing")
	}
	return []*program{perl, memsum}, nil
}

// --- cold -------------------------------------------------------------------

// Cold-code shape. Each generated program is a chain of blocks run
// coldPasses times: every block is translated once and reached only a few
// times, so the JIT dominates.
const (
	coldBlocks = 5000 // chain blocks per cold program (pads and leaves come on top)
	coldPasses = 2
	smpBlocks  = 300 // private cold blocks per hart on smp2
	coldData   = 0x300000
)

// coldLengths is the body-length histogram shared by every seed: length →
// share of the chain's blocks, in per mille.
var coldLengths = []struct{ n, permille int }{
	{1, 150}, {2, 150}, {3, 150}, {4, 120}, {6, 120}, {8, 100}, {12, 90}, {16, 70}, {24, 50},
}

// Block terminators of the cold chain.
const (
	termFall     = iota // unconditional branch to the next block
	termCond            // conditional branch around a one-block pad
	termCall            // call to a private leaf function
	termIndirect        // register-indirect branch to the next block
	numTerms
)

// termCycle is the terminator mix shared by every seed (40% fall-through,
// 20% each of the others), dealt round-robin over every body length so the
// joint length × terminator histogram is fixed too.
var termCycle = [...]int{termFall, termCond, termFall, termCall, termFall, termIndirect, termFall, termCond, termCall, termIndirect}

// coldShape deals the fixed multiset of (body length, terminator) pairs over
// n blocks in a seed-chosen order.
func coldShape(rng *rand.Rand, n int) (lens, terms []int) {
	lens = make([]int, 0, n)
	for i, c := range coldLengths {
		k := n * c.permille / 1000
		if i == len(coldLengths)-1 {
			k = n - len(lens)
		}
		for j := 0; j < k; j++ {
			lens = append(lens, c.n)
		}
	}
	terms = make([]int, n)
	for i := range terms {
		terms[i] = termCycle[i%len(termCycle)]
	}
	rng.Shuffle(n, func(i, j int) {
		lens[i], lens[j] = lens[j], lens[i]
		terms[i], terms[j] = terms[j], terms[i]
	})
	return lens, terms
}

// ga64ALU emits one seed-chosen single-instruction operation over the data
// registers x0..x15 (x20 holds the data-area base).
func ga64ALU(p *gasm.Program, rng *rand.Rand) {
	r := func() gasm.Reg { return gasm.Reg(rng.Intn(16)) }
	switch rng.Intn(12) {
	case 0:
		p.Add(r(), r(), r())
	case 1:
		p.Sub(r(), r(), r())
	case 2:
		p.Eor(r(), r(), r())
	case 3:
		p.Orr(r(), r(), r())
	case 4:
		p.And(r(), r(), r())
	case 5:
		p.Mul(r(), r(), r())
	case 6:
		p.AddI(r(), r(), uint32(rng.Intn(0x4000)))
	case 7:
		p.Lsl(r(), r(), uint32(rng.Intn(64)))
	case 8:
		p.Lsr(r(), r(), uint32(rng.Intn(64)))
	case 9:
		p.Madd(r(), r(), r(), r())
	case 10:
		p.Ldr(r(), 20, int32(rng.Intn(512)*8))
	default:
		p.Str(r(), 20, int32(rng.Intn(512)*8))
	}
}

// ga64Const loads a 64-bit constant in exactly four instructions, so seeded
// values never change the instruction count.
func ga64Const(p *gasm.Program, rd gasm.Reg, v uint64) {
	p.Movz(rd, uint16(v), 0)
	for hw := uint32(1); hw < 4; hw++ {
		p.Movk(rd, uint16(v>>(16*hw)), hw)
	}
}

// coldGA64 generates the bare-metal GA64 cold program (EL1, MMU off).
func coldGA64(rng *rand.Rand, n int) (*program, error) {
	lens, terms := coldShape(rng, n)
	p := gasm.New(bench.KernelBase)
	for r := gasm.Reg(0); r < 16; r++ {
		ga64Const(p, r, rng.Uint64())
	}
	ga64Const(p, 20, coldData)
	ga64Const(p, 28, coldPasses)
	p.Label("pass")
	var leaves []int
	for i := 0; i < n; i++ {
		p.Label(fmt.Sprintf("b%d", i))
		for j := 0; j < lens[i]; j++ {
			ga64ALU(p, rng)
		}
		next := fmt.Sprintf("b%d", i+1)
		switch terms[i] {
		case termFall:
			p.B(next)
		case termCond:
			p.CmpI(28, 1) // taken on the last pass only
			p.BCond(ga64.CondEQ, next)
			ga64ALU(p, rng)
			p.B(next)
		case termCall:
			p.BL(fmt.Sprintf("leaf%d", i))
			leaves = append(leaves, i)
		case termIndirect:
			p.Adr(27, next)
			p.Br(27)
		}
	}
	p.Label(fmt.Sprintf("b%d", n))
	p.SubsI(28, 28, 1)
	p.BCond(ga64.CondNE, "pass")
	p.Hlt(0)
	for _, i := range leaves {
		p.Label(fmt.Sprintf("leaf%d", i))
		ga64ALU(p, rng)
		ga64ALU(p, rng)
		p.Ret()
	}
	code, err := p.Assemble()
	if err != nil {
		return nil, err
	}
	sums := make([]int, 16)
	for i := range sums {
		sums[i] = i
	}
	return &program{
		name: "ga64/cold", guest: "ga64", harts: 1,
		segs: []segment{{code, bench.KernelBase}}, entry: bench.KernelBase,
		sums: sums,
	}, nil
}

// RV64 register roles in generated code: x5..x19 data, x20 data base, x27
// indirect-branch scratch, x28 pass counter, x29 the constant 1.
const (
	rvData0, rvDataN = 5, 15
	rvBase           = 20
	rvTmp            = 27
	rvPass           = 28
	rvOne            = 29
)

// rv64ALU emits one seed-chosen single-instruction operation.
func rv64ALU(p *rvasm.Program, rng *rand.Rand) {
	r := func() rvasm.Reg { return rvasm.Reg(rvData0 + rng.Intn(rvDataN)) }
	imm := func() int32 { return int32(rng.Intn(4096) - 2048) }
	switch rng.Intn(12) {
	case 0:
		p.Add(r(), r(), r())
	case 1:
		p.Sub(r(), r(), r())
	case 2:
		p.Xor(r(), r(), r())
	case 3:
		p.Or(r(), r(), r())
	case 4:
		p.And(r(), r(), r())
	case 5:
		p.Mul(r(), r(), r())
	case 6:
		p.Addi(r(), r(), imm())
	case 7:
		p.Xori(r(), r(), imm())
	case 8:
		p.Slli(r(), r(), uint32(rng.Intn(64)))
	case 9:
		p.Srli(r(), r(), uint32(rng.Intn(64)))
	case 10:
		p.Ld(r(), rvBase, int32(rng.Intn(256)*8))
	default:
		p.Sd(r(), rvBase, int32(rng.Intn(256)*8))
	}
}

// rv64Chain emits a cold chain of n blocks under the label prefix, run
// coldPasses times, ending in a jump to exit; leaves are emitted by the
// returned function (after the code that must fall through).
func rv64Chain(p *rvasm.Program, rng *rand.Rand, n int, prefix, exit string) (emitLeaves func()) {
	lens, terms := coldShape(rng, n)
	lbl := func(i int) string { return fmt.Sprintf("%s.b%d", prefix, i) }
	for r := rvData0; r < rvData0+rvDataN; r++ {
		p.Addi(rvasm.Reg(r), rvasm.X0, int32(rng.Intn(4096)-2048))
	}
	p.Li(rvPass, coldPasses)
	p.Li(rvOne, 1)
	p.Label(prefix + ".pass")
	var leaves []int
	for i := 0; i < n; i++ {
		p.Label(lbl(i))
		for j := 0; j < lens[i]; j++ {
			rv64ALU(p, rng)
		}
		switch terms[i] {
		case termFall:
			p.Jal(rvasm.X0, lbl(i+1))
		case termCond:
			p.Beq(rvPass, rvOne, lbl(i+1)) // taken on the last pass only
			rv64ALU(p, rng)
			p.Jal(rvasm.X0, lbl(i+1))
		case termCall:
			p.Jal(rvasm.RA, fmt.Sprintf("%s.leaf%d", prefix, i))
			leaves = append(leaves, i)
		case termIndirect:
			p.La(rvTmp, lbl(i+1))
			p.Jalr(rvasm.X0, rvTmp, 0)
		}
	}
	p.Label(lbl(n))
	p.Addi(rvPass, rvPass, -1)
	p.Beq(rvPass, rvasm.X0, prefix+".end") // B-type reach is ±4 KiB: loop back by jal
	p.Jal(rvasm.X0, prefix+".pass")
	p.Label(prefix + ".end")
	p.Jal(rvasm.X0, exit)
	return func() {
		for _, i := range leaves {
			p.Label(fmt.Sprintf("%s.leaf%d", prefix, i))
			rv64ALU(p, rng)
			rv64ALU(p, rng)
			p.Ret()
		}
	}
}

// rvSums lists the RV64 data registers (the compared checksum registers).
func rvSums() []int {
	sums := make([]int, rvDataN)
	for i := range sums {
		sums[i] = rvData0 + i
	}
	return sums
}

// coldRV64 generates the bare-metal RV64 cold program (M-mode, bare).
func coldRV64(rng *rand.Rand, n int) (*program, error) {
	p := rvasm.New(rvEntry)
	p.Li(rvBase, coldData)
	leaves := rv64Chain(p, rng, n, "c", "done")
	p.Label("done")
	p.Ecall() // mtvec is 0: a clean halt
	leaves()
	code, err := p.Assemble()
	if err != nil {
		return nil, err
	}
	return &program{
		name: "rv64/cold", guest: "rv64", harts: 1,
		segs: []segment{{code, rvEntry}}, entry: rvEntry,
		sums: rvSums(),
	}, nil
}

func coldPrograms(seed int64) ([]*program, error) {
	rng := newRand(seed)
	g, err := coldGA64(rng, coldBlocks)
	if err != nil {
		return nil, err
	}
	r, err := coldRV64(rng, coldBlocks)
	if err != nil {
		return nil, err
	}
	return []*program{g, r}, nil
}

// --- smp2 -------------------------------------------------------------------

// smpHotIters is the per-hart iteration count of the shared hot loop (four
// instructions, one block per iteration).
const smpHotIters = 500_000

// smpProgram generates the two-hart RV64 program: each hart runs its own
// private cold chain (translated under stop-the-world), then both run the
// shared LCG loop seeded per hart.
func smpProgram(seed int64) (*program, error) {
	rng := newRand(seed)
	p := rvasm.New(rvEntry)
	p.Li(rvBase, coldData)
	p.Csrr(rvTmp, rv64.CSRMhartid)
	p.Beq(rvTmp, rvasm.X0, "h0")
	p.Jal(rvasm.X0, "h1")
	p.Label("h0")
	leaves0 := rv64Chain(p, rng, smpBlocks, "h0", "hot")
	p.Label("h1")
	p.Li(rvBase, coldData+0x1000) // private data page
	leaves1 := rv64Chain(p, rng, smpBlocks, "h1", "hot")
	p.Label("hot")
	p.Csrr(21, rv64.CSRMhartid)
	p.Li(22, smpHotIters)
	p.Addi(23, 21, int32(rng.Intn(2048))) // per-hart seed
	p.Li(24, 6364136223846793005)
	p.Li(25, 1442695040888963407)
	p.Label("hot.loop")
	p.Mul(23, 23, 24)
	p.Add(23, 23, 25)
	p.Addi(22, 22, -1)
	p.Bne(22, rvasm.X0, "hot.loop")
	p.Ecall()
	leaves0()
	leaves1()
	code, err := p.Assemble()
	if err != nil {
		return nil, err
	}
	return &program{
		name: "rv64/smp2", guest: "rv64", harts: 2,
		segs: []segment{{code, rvEntry}}, entry: rvEntry,
		sums: append(rvSums(), 23),
	}, nil
}

// --- system -----------------------------------------------------------------

// GA64 system-program layout (physical == kernel virtual; the user runs at
// EL0 from sysUser with its data sweep at sysData).
const (
	sysRootA   = 0x100000 // address space A: root, L2, L1, four L0 tables
	sysRootB   = 0x110000 // address space B, same layout
	sysKVars   = 0x1F8000 // kernel variables
	sysKStack  = 0x1F0000
	sysUser    = 0x400000 // user code (2 MiB block, identity)
	sysUStack  = 0x5F0000
	sysData    = 0x1000000 // user data VA: 8 MiB of 4 KiB pages
	sysDataPA  = 0x1000000 // backing of address space A
	sysDataPB  = 0x2000000 // backing of address space B
	sysPages   = 2048      // > 4× the host TLB
	sysUnmap   = 0x3000000 // never mapped: user loads here abort
	sysEpochs  = 10        // address-space switches (TTBR0 write + TLBI each)
	sysSweeps  = 6         // working-set sweeps per epoch (~1e5 instructions)
	sysPeriod  = 12_000    // timer period in virtual-time units
	kvTicks    = 0
	kvFaults   = 8
	kvSwitches = 16
	kvAS       = 24
	kvPeriod   = 32
)

// Mini-kernel syscalls of the system program.
const (
	sysExit   = 0
	sysPutc   = 1
	sysSwitch = 2
)

// systemGA64 generates the GA64 system program: an EL1 kernel with two
// 4 KiB-paged address spaces, a timer tick, a syscall table and an abort
// handler, and an EL0 user that sweeps a working set larger than the host
// TLB reach, writes the UART, takes aborts and switches address space once
// per ~1e5 instructions.
func systemGA64(rng *rand.Rand) (*program, error) {
	k := gasm.New(bench.KernelBase)
	// --- boot (EL1, MMU off, IRQs masked) ---
	k.MovI(0, 1)
	k.Msr(ga64.SysDAIF, 0)
	k.MovI(gasm.SP, sysKStack)
	k.Adr(0, "vectors")
	k.Msr(ga64.SysVBAR, 0)
	for _, as := range []struct{ root, data uint64 }{{sysRootA, sysDataPA}, {sysRootB, sysDataPB}} {
		tbl := uint64(ga64.PTEValid | ga64.PTEWrite | ga64.PTEUser)
		l2, l1, l0 := as.root+0x1000, as.root+0x2000, as.root+0x3000
		k.MovI(0, as.root)
		k.MovI(1, l2|tbl)
		k.Str(1, 0, 0)
		k.MovI(0, l2)
		k.MovI(1, l1|tbl)
		k.Str(1, 0, 0)
		k.MovI(0, l1)
		k.MovI(1, 0|ga64.PTEValid|ga64.PTEWrite|ga64.PTELarge) // kernel 2 MiB, no EL0
		k.Str(1, 0, 0)
		k.MovI(1, sysUser|tbl|ga64.PTELarge) // user code + stack
		k.Str(1, 0, int32(sysUser>>21*8))
		k.MovI(1, uint64(ga64.DeviceBase)|ga64.PTEValid|ga64.PTEWrite|ga64.PTELarge)
		k.Str(1, 0, int32(uint64(ga64.DeviceBase)>>21*8))
		for t := uint64(0); t < sysPages/512; t++ {
			k.MovI(0, l1+(sysData>>21+t)*8)
			k.MovI(1, (l0+t*0x1000)|tbl)
			k.Str(1, 0, 0)
		}
		lbl := fmt.Sprintf("pt%x", as.root)
		k.MovI(0, l0)
		k.MovI(1, as.data|tbl)
		k.MovI(2, sysPages)
		k.MovI(3, 0x1000)
		k.Label(lbl)
		k.Str(1, 0, 0)
		k.Add(1, 1, 3)
		k.AddI(0, 0, 8)
		k.SubsI(2, 2, 1)
		k.BCond(ga64.CondNE, lbl)
	}
	k.MovI(0, sysRootA)
	k.Msr(ga64.SysTTBR0, 0)
	k.MovI(0, ga64.SCTLRMmuEnable)
	k.Msr(ga64.SysSCTLR, 0)
	k.MovI(0, sysKVars)
	k.MovI(1, sysPeriod)
	k.Str(1, 0, kvPeriod)
	// Arm the tick and enter the user at EL0 with IRQs open.
	k.MovI(2, ga64.TimerBase)
	k.Mrs(3, ga64.SysCNTVCT)
	k.Add(3, 3, 1)
	k.Str(3, 2, device.TimerCmp)
	k.MovI(3, 1)
	k.Str(3, 2, device.TimerCtrl)
	k.Msr(ga64.SysIRQEN, 3)
	k.MovI(0, sysUser)
	k.Msr(ga64.SysELR, 0)
	k.MovI(0, 0)
	k.Msr(ga64.SysSPSR, 0)
	k.MovI(gasm.SP, sysUStack)
	k.Eret()

	// --- vectors: the kernel only touches x24..x26 ---
	k.AlignTo(0x800)
	k.Label("vectors")
	k.Hlt(0x3FFF) // sync from EL1
	k.AlignTo(0x80)
	k.Hlt(0x3FFE) // IRQ from EL1 (masked: never taken)
	k.AlignTo(0x100)
	k.B("sync0")
	k.AlignTo(0x180)
	k.B("irq0")

	k.Label("sync0")
	k.Mrs(25, ga64.SysESR)
	k.Lsr(26, 25, 26)
	k.CmpI(26, ga64.ECSVC)
	k.BCond(ga64.CondNE, "abort")
	k.Lsl(25, 25, 48)
	k.Lsr(25, 25, 48)
	k.CmpI(25, sysPutc)
	k.BCond(ga64.CondEQ, "putc")
	k.CmpI(25, sysSwitch)
	k.BCond(ga64.CondEQ, "switch")
	k.CmpI(25, sysExit)
	k.BCond(ga64.CondEQ, "exit")
	k.Hlt(0x3FFC)

	k.Label("putc")
	k.MovI(25, ga64.UARTBase)
	k.Str32(0, 25, 0)
	k.Eret()

	k.Label("switch")
	k.MovI(25, sysKVars)
	k.Ldr(26, 25, kvSwitches)
	k.AddI(26, 26, 1)
	k.Str(26, 25, kvSwitches)
	k.Ldr(26, 25, kvAS)
	k.EorI(26, 26, 1)
	k.Str(26, 25, kvAS)
	k.MovI(25, sysRootA)
	k.Cbz(26, "setroot")
	k.MovI(25, sysRootB)
	k.Label("setroot")
	k.Msr(ga64.SysTTBR0, 25)
	k.Tlbi()
	k.Eret()

	k.Label("exit")
	k.MovI(25, sysKVars)
	k.Ldr(21, 25, kvTicks)
	k.Ldr(22, 25, kvFaults)
	k.Ldr(23, 25, kvSwitches)
	k.Hlt(0)

	k.Label("abort")
	k.CmpI(26, ga64.ECDataAbortLower)
	k.BCond(ga64.CondEQ, "skip")
	k.Hlt(0x3FF0)
	k.Label("skip")
	k.MovI(25, sysKVars)
	k.Ldr(26, 25, kvFaults)
	k.AddI(26, 26, 1)
	k.Str(26, 25, kvFaults)
	k.Mrs(25, ga64.SysELR)
	k.AddI(25, 25, 4)
	k.Msr(ga64.SysELR, 25)
	k.Eret()

	k.Label("irq0")
	k.MovI(25, sysKVars)
	k.Ldr(26, 25, kvTicks)
	k.AddI(26, 26, 1)
	k.Str(26, 25, kvTicks)
	k.Ldr(24, 25, kvPeriod)
	k.Mrs(26, ga64.SysCNTVCT)
	k.Add(26, 26, 24)
	k.MovI(25, ga64.TimerBase)
	k.Str(26, 25, device.TimerCmp)
	k.Eret()
	kern, err := k.Assemble()
	if err != nil {
		return nil, err
	}

	// --- user (EL0) ---
	u := gasm.New(sysUser)
	for r := gasm.Reg(0); r < 16; r++ {
		ga64Const(u, r, rng.Uint64())
	}
	ga64Const(u, 20, sysData+uint64(rng.Intn(512))*8) // sweep offset within each page
	u.MovI(18, sysEpochs)
	u.Label("epoch")
	u.MovI(17, sysSweeps)
	u.Label("sweep")
	u.MovI(16, sysPages)
	u.Mov(15, 20)
	u.Label("page")
	u.Ldr(1, 15, 0)
	u.Add(1, 1, 16)
	u.Eor(2, 2, 1)
	u.Str(1, 15, 0)
	u.AddI(15, 15, 0x1000)
	u.SubsI(16, 16, 1)
	u.BCond(ga64.CondNE, "page")
	for j := 0; j < 24; j++ { // seeded compute between sweeps
		ga64ALU(u, rng)
	}
	u.SubsI(17, 17, 1)
	u.BCond(ga64.CondNE, "sweep")
	u.Lsr(0, 2, 3) // one printable console byte per epoch
	u.AndI(0, 0, 0x3F)
	u.AddI(0, 0, 0x30)
	u.Svc(sysPutc)
	ga64Const(u, 14, sysUnmap)
	u.Ldr(3, 14, 0) // aborts; the kernel skips it
	u.Ldr(4, 14, 8)
	u.Svc(sysSwitch)
	u.SubsI(18, 18, 1)
	u.BCond(ga64.CondNE, "epoch")
	u.Svc(sysExit)
	user, err := u.Assemble()
	if err != nil {
		return nil, err
	}
	sums := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 21, 22, 23}
	return &program{
		name: "ga64/system", guest: "ga64", harts: 1,
		segs:  []segment{{kern, bench.KernelBase}, {user, sysUser}},
		entry: bench.KernelBase, sums: sums,
	}, nil
}

// RV64 system-program shape: the rv64.vmsum structure — an M-mode boot
// builds sv39 tables and drops to S-mode, which sweeps a paged working set
// and makes an M↔S trap round trip per pass.
const (
	rvSysRoot   = 0x700000
	rvSysL1     = 0x701000
	rvSysData   = 0x200000 // 4 MiB of data megapages
	rvSysPasses = 8        // M↔S round trips (each a regime change pair)
	rvSysPages  = 1024
	rvSysSweeps = 24
)

// systemRV64 generates the RV64 supervisor program.
func systemRV64(rng *rand.Rand) (*program, error) {
	pte := func(pa, bits uint64) uint64 { return pa>>12<<10 | bits }
	leaf := uint64(rv64.PTEV | rv64.PTEA | rv64.PTED)
	p := rvasm.New(rvEntry)
	st := func(addr, v uint64) {
		p.Li(6, v)
		p.Li(7, addr)
		p.Sd(6, 7, 0)
	}
	st(rvSysRoot, pte(rvSysL1, rv64.PTEV))
	st(rvSysL1, pte(0, leaf|rv64.PTER|rv64.PTEW|rv64.PTEX))
	st(rvSysL1+8, pte(rvSysData, leaf|rv64.PTER|rv64.PTEW))
	st(rvSysL1+16, pte(rvSysData+0x200000, leaf|rv64.PTER|rv64.PTEW))
	p.La(6, "mtrap")
	p.Csrw(rv64.CSRMtvec, 6)
	p.Li(6, rv64.SatpModeSv39<<60|rvSysRoot>>12)
	p.Csrw(rv64.CSRSatp, 6)
	p.SfenceVma()
	p.Li(6, rv64.PrivS<<rv64.MstatusMPPShift)
	p.Csrw(rv64.CSRMstatus, 6)
	p.La(6, "super")
	p.Csrw(rv64.CSRMepc, 6)
	p.Mret()

	p.Label("super")
	for r := 8; r < 20; r++ {
		p.Addi(rvasm.Reg(r), rvasm.X0, int32(rng.Intn(4096)-2048))
	}
	p.Li(rvBase, rvSysData+uint64(rng.Intn(512))*8)
	p.Li(21, 0)
	p.Li(26, rvSysPasses)
	p.Label("pass")
	p.Li(27, rvSysSweeps)
	p.Label("sweep")
	p.Li(28, rvSysPages)
	p.Mv(29, rvBase)
	p.Label("page")
	p.Ld(8, 29, 0)
	p.Add(8, 8, 28)
	p.Xor(9, 9, 8)
	p.Sd(8, 29, 0)
	p.Li(30, 0x1000)
	p.Add(29, 29, 30)
	p.Addi(28, 28, -1)
	p.Bne(28, rvasm.X0, "page")
	for j := 0; j < 24; j++ {
		rv64ALU(p, rng)
	}
	p.Addi(27, 27, -1)
	p.Bne(27, rvasm.X0, "sweep")
	p.Ecall() // supervisor yield: trap to M and back
	p.Addi(26, 26, -1)
	p.Bne(26, rvasm.X0, "pass")
	p.Li(21, 1)
	p.Ecall() // x21 != 0: the M handler clears mtvec and halts

	p.Label("mtrap")
	p.Bne(21, rvasm.X0, "mexit")
	p.Csrr(30, rv64.CSRMepc)
	p.Addi(30, 30, 4)
	p.Csrw(rv64.CSRMepc, 30)
	p.Mret()
	p.Label("mexit")
	p.Csrw(rv64.CSRMtvec, rvasm.X0)
	p.Ecall()
	code, err := p.Assemble()
	if err != nil {
		return nil, err
	}
	return &program{
		name: "rv64/system", guest: "rv64", harts: 1,
		segs: []segment{{code, rvEntry}}, entry: rvEntry,
		sums: rvSums(),
	}, nil
}

func systemPrograms(seed int64) ([]*program, error) {
	rng := newRand(seed)
	g, err := systemGA64(rng)
	if err != nil {
		return nil, err
	}
	r, err := systemRV64(rng)
	if err != nil {
		return nil, err
	}
	return []*program{g, r}, nil
}
