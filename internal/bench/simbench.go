package bench

import (
	"fmt"

	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
)

// SimBench (§3.5, Fig. 19): targeted micro-benchmarks probing full-system
// emulation categories. Each is a self-contained bare-metal EL1 image
// re-implementing the corresponding SimBench category (DESIGN.md §1).

// Micro is one SimBench micro-benchmark.
type Micro struct {
	Name  string
	Build func() *asm.Program
}

// SimBench returns the 16 micro-benchmarks in the paper's Fig. 19 order.
func SimBench() []Micro {
	return []Micro{
		{"Mem-Hot-MMU", memHot(true)},
		{"Mem-Hot-NoMMU", memHot(false)},
		{"Mem-Cold-MMU", memCold(true)},
		{"Mem-Cold-NoMMU", memCold(false)},
		{"Undef-Instruction", undefInstr},
		{"Syscall", syscallBench},
		{"Data-Fault", dataFault},
		{"Instruction-Fault", instrFault},
		{"Small-Blocks", smallBlocks},
		{"Large-Blocks", largeBlocks},
		{"Same-Page-Indirect", pageBranch(false, true)},
		{"Inter-Page-Indirect", pageBranch(true, true)},
		{"Same-Page-Direct", pageBranch(false, false)},
		{"Inter-Page-Direct", pageBranch(true, false)},
		{"TLB-Flush", tlbFlush},
		{"TLB-Evict", tlbEvict},
	}
}

// emitIdentityMMU builds 2 MiB identity blocks over the low 16 MiB plus the
// device window and enables translation (clobbers x0-x3).
func emitIdentityMMU(p *asm.Program) {
	pte := uint64(ga64.PTEValid | ga64.PTEWrite | ga64.PTEUser)
	p.MovI(0, KernRoot)
	p.MovI(1, KernL2|pte)
	p.Str(1, 0, 0)
	p.MovI(0, KernL2)
	p.MovI(1, KernL1|pte)
	p.Str(1, 0, 0)
	p.MovI(0, KernL1)
	p.MovI(1, pte|ga64.PTELarge)
	p.MovI(2, 8)
	p.MovI(3, 0x200000)
	p.Label("idmap")
	p.Str(1, 0, 0)
	p.Add(1, 1, 3)
	p.AddI(0, 0, 8)
	p.SubsI(2, 2, 1)
	p.BCond(ga64.CondNE, "idmap")
	p.MovI(0, KernL1+128*8)
	p.MovI(1, uint64(ga64.DeviceBase)|uint64(ga64.PTEValid|ga64.PTEWrite)|ga64.PTELarge)
	p.Str(1, 0, 0)
	p.MovI(0, KernRoot)
	p.Msr(ga64.SysTTBR0, 0)
	p.MovI(0, ga64.SCTLRMmuEnable)
	p.Msr(ga64.SysSCTLR, 0)
}

// memHot: repeated accesses to a small, resident buffer — the memory fast
// path with and without guest translation enabled.
func memHot(mmu bool) func() *asm.Program {
	return func() *asm.Program {
		p := asm.New(KernelBase)
		if mmu {
			emitIdentityMMU(p)
		}
		p.MovI(19, heap)
		p.MovI(2, 600000)
		p.Label("loop")
		p.Ldr(3, 19, 0)
		p.AddI(3, 3, 1)
		p.Str(3, 19, 0)
		p.Ldr(4, 19, 64)
		p.Str(4, 19, 128)
		p.SubsI(2, 2, 1)
		p.BCond(ga64.CondNE, "loop")
		p.Hlt(1)
		return p
	}
}

// memCold: page-stride sweeps over a 4 MiB region — TLB-miss dominated.
func memCold(mmu bool) func() *asm.Program {
	return func() *asm.Program {
		p := asm.New(KernelBase)
		if mmu {
			emitIdentityMMU(p)
		}
		p.MovI(20, 120) // sweeps
		p.Label("sweep")
		p.MovI(19, heap)
		p.MovI(2, 900) // pages (~3.7 MiB)
		p.Label("loop")
		p.Ldr(3, 19, 0)
		p.Add(3, 3, 2)
		p.Str(3, 19, 8)
		p.MovI(4, 4096)
		p.Add(19, 19, 4)
		p.SubsI(2, 2, 1)
		p.BCond(ga64.CondNE, "loop")
		p.SubsI(20, 20, 1)
		p.BCond(ga64.CondNE, "sweep")
		p.Hlt(1)
		return p
	}
}

// undefInstr: take an undefined-instruction exception per iteration; the
// handler steps past it.
func undefInstr() *asm.Program {
	p := asm.New(KernelBase)
	p.Adr(0, "vectors")
	p.Msr(ga64.SysVBAR, 0)
	p.MovI(2, 40000)
	p.Label("loop")
	p.Word(0xFF000000) // undefined encoding
	p.SubsI(2, 2, 1)
	p.BCond(ga64.CondNE, "loop")
	p.Hlt(1)
	p.AlignTo(0x200)
	p.Label("vectors") // sync from EL1
	p.Mrs(10, ga64.SysELR)
	p.AddI(10, 10, 4) // skip the undefined word
	p.Msr(ga64.SysELR, 10)
	p.Eret()
	return p
}

// syscallBench: EL0 <-> EL1 round trips via SVC.
func syscallBench() *asm.Program {
	p := asm.New(KernelBase)
	p.Adr(0, "vectors")
	p.Msr(ga64.SysVBAR, 0)
	emitIdentityMMU(p)
	p.Adr(0, "user")
	p.Msr(ga64.SysELR, 0)
	p.MovI(0, 0)
	p.Msr(ga64.SysSPSR, 0)
	p.MovI(asm.SP, UserStack)
	p.Eret()
	p.Label("user")
	p.MovI(2, 50000)
	p.Label("uloop")
	p.Svc(0)
	p.SubsI(2, 2, 1)
	p.BCond(ga64.CondNE, "uloop")
	p.Svc(1) // terminate
	p.AlignTo(0x200)
	p.Label("vectors")
	p.Hlt(0x3FF) // sync from EL1: unexpected
	p.AlignTo(0x80)
	p.Hlt(0x3FE)
	p.AlignTo(0x100) // sync from EL0: the syscall
	p.Mrs(10, ga64.SysESR)
	p.MovI(11, 0xFFFF)
	p.And(10, 10, 11)
	p.Cbnz(10, "done")
	p.Eret()
	p.Label("done")
	p.Hlt(1)
	return p
}

// dataFault: access an unmapped address every iteration; the handler steps
// past the load. This is the category where the paper reports Captive
// *losing* to QEMU (fault bookkeeping, §3.5).
func dataFault() *asm.Program {
	p := asm.New(KernelBase)
	p.Adr(0, "vectors")
	p.Msr(ga64.SysVBAR, 0)
	emitIdentityMMU(p)
	p.MovI(19, 0x40000000) // unmapped
	p.MovI(2, 25000)
	p.Label("loop")
	p.Ldr(3, 19, 0) // faults
	p.SubsI(2, 2, 1)
	p.BCond(ga64.CondNE, "loop")
	p.Hlt(1)
	p.AlignTo(0x200)
	p.Label("vectors")
	p.Mrs(10, ga64.SysELR)
	p.AddI(10, 10, 4)
	p.Msr(ga64.SysELR, 10)
	p.Eret()
	return p
}

// instrFault: branch to an unmapped address; the handler resumes at the
// loop head.
func instrFault() *asm.Program {
	p := asm.New(KernelBase)
	p.Adr(0, "vectors")
	p.Msr(ga64.SysVBAR, 0)
	emitIdentityMMU(p)
	p.MovI(19, 0x48000000) // unmapped target
	p.Adr(20, "resume")
	p.MovI(2, 25000)
	p.Label("loop")
	p.Br(19) // instruction fault
	p.Label("resume")
	p.SubsI(2, 2, 1)
	p.BCond(ga64.CondNE, "loop")
	p.Hlt(1)
	p.AlignTo(0x200)
	p.Label("vectors")
	p.Msr(ga64.SysELR, 20) // resume label kept in x20
	p.Eret()
	return p
}

// smallBlocks: execute thousands of distinct 2-instruction blocks exactly
// once — translation-throughput bound (the category where the paper reports
// Captive ~85% slower than QEMU).
func smallBlocks() *asm.Program {
	p := asm.New(KernelBase)
	p.MovI(1, 0)
	for i := 0; i < 12000; i++ {
		p.AddI(1, 1, 1)
		p.BNext() // ends the block; falls to the next one
	}
	p.Hlt(1)
	return p
}

// largeBlocks: fewer but long straight-line blocks, also executed once.
func largeBlocks() *asm.Program {
	p := asm.New(KernelBase)
	p.MovI(1, 0)
	for b := 0; b < 600; b++ {
		for i := 0; i < 60; i++ {
			p.AddI(1, 1, 3)
		}
		p.BNext()
	}
	p.Hlt(1)
	return p
}

// pageBranch builds the four control-flow benchmarks: direct or indirect
// branches within one page or across two pages.
func pageBranch(inter, indirect bool) func() *asm.Program {
	return func() *asm.Program {
		p := asm.New(KernelBase)
		p.MovI(2, 500000)
		if indirect {
			p.Adr(20, "a")
			p.Adr(21, "b")
		}
		if inter {
			p.B("a") // skip the alignment padding
			p.AlignTo(0x1000)
		}
		p.Label("a")
		p.SubsI(2, 2, 1)
		p.BCond(ga64.CondEQ, "out")
		if indirect {
			p.Br(21)
		} else {
			p.B("b")
		}
		if inter {
			p.AlignTo(0x1000) // push "b" to the next page (never fallen into)
		}
		p.Label("b")
		if indirect {
			p.Br(20)
		} else {
			p.B("a")
		}
		p.Label("out")
		p.Hlt(1)
		return p
	}
}

// tlbFlush: a TLB invalidate plus a handful of accesses per iteration. The
// physically-indexed Captive cache survives each flush; the baseline's
// virtually-indexed cache (and softmmu TLB) is destroyed every time.
func tlbFlush() *asm.Program {
	p := asm.New(KernelBase)
	emitIdentityMMU(p)
	p.MovI(asm.SP, heap-0x1000)
	p.MovI(19, heap)
	p.MovI(2, 2500)
	p.Label("loop")
	p.Tlbi()
	p.Ldr(3, 19, 0)
	p.AddI(3, 3, 1)
	p.Str(3, 19, 0)
	p.Ldr(4, 19, 4096)
	p.Str(4, 19, 8000)
	// A working set of code: forty small functions per iteration. The
	// physically-indexed Captive cache keeps their translations across the
	// TLB flush; the baseline's virtually-indexed cache retranslates them
	// every iteration (§2.6).
	for f := 0; f < 40; f++ {
		p.BL(fmt.Sprintf("fn%d", f))
	}
	p.SubsI(2, 2, 1)
	p.BCond(ga64.CondNE, "loop")
	p.Hlt(1)
	for f := 0; f < 40; f++ {
		p.Label(fmt.Sprintf("fn%d", f))
		p.AddI(3, 3, uint32(f))
		p.Ret()
	}
	return p
}

// tlbEvict: cyclic sweeps over more pages than any TLB holds (capacity
// pressure without explicit invalidation).
func tlbEvict() *asm.Program {
	p := asm.New(KernelBase)
	emitIdentityMMU(p)
	p.MovI(20, 150) // sweeps
	p.Label("sweep")
	p.MovI(19, heap)
	p.MovI(2, 1600) // pages: 6.5 MiB > both TLB reaches
	p.Label("loop")
	p.Ldr(3, 19, 0)
	p.Add(3, 3, 2)
	p.Str(3, 19, 0)
	p.MovI(4, 4096)
	p.Add(19, 19, 4)
	p.SubsI(2, 2, 1)
	p.BCond(ga64.CondNE, "loop")
	p.SubsI(20, 20, 1)
	p.BCond(ga64.CondNE, "sweep")
	p.Hlt(1)
	return p
}
