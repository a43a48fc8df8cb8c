// Package bench contains the workload infrastructure for the paper's
// evaluation: a miniature guest operating system standing in for the ARM
// Linux environment of §3.1, the SPEC-CPU2006-shaped application kernels of
// §3.2 (Figs. 17–18), the SimBench micro-benchmark suite of §3.5 (Fig. 19),
// and the harness that runs workloads across execution engines and collects
// the statistics each figure reports.
package bench

import (
	"fmt"

	"captive/internal/device"
	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
)

// Guest memory layout for mini-OS workloads.
const (
	KernelBase = 0x1000             // kernel load PA / identity VA
	KernRoot   = 0x200000           // TTBR0 page-table root
	Kern1Root  = 0x208000           // TTBR1 page-table root
	KernL2     = 0x201000           // shared L2 table
	KernL1     = 0x202000           // shared L1 table (2 MiB block entries)
	KernStack  = 0x1F0000           // kernel stack top (low alias)
	UserBase   = 0x400000           // user program load PA / VA
	UserStack  = 0x7F0000           // user stack top
	HighBase   = 0xFFFF800000000000 // kernel high-half alias (TTBR1)
)

// Syscall numbers (SVC immediates).
const (
	SysExit    = 0 // x0 = exit code
	SysPutchar = 1 // x0 = byte
	SysCycles  = 2 // returns CNTVCT in x0
	SysYield   = 3 // no-op
)

// Preemptive-scheduler memory layout (BuildKernelPreemptive only). All of it
// sits inside the low-16 MiB identity map, so both the low and the high-half
// aliases reach it.
const (
	User2Base  = 0x500000 // second task's load PA / VA
	User2Stack = 0x7E0000 // second task's stack top
	TaskCB0    = 0x1F4000 // task 0 control block
	TaskCB1    = 0x1F4200 // task 1 control block (TaskCB0 + 1<<tcbShift)
	CurTaskVar = 0x1F4400 // index of the running task (0 or 1)
)

// Task control block: 34 8-byte slots — 0..30 = x0..x30, then SP, ELR, SPSR.
const (
	tcbShift = 9 // TCB stride as a shift (0x200 bytes)
	tcbSP    = 31 * 8
	tcbELR   = 32 * 8
	tcbSPSR  = 33 * 8
)

// BuildKernel assembles the mini-OS kernel image (loaded at KernelBase,
// entered at KernelBase with the MMU off at EL1). It:
//
//  1. installs the exception vector table (high-half addresses),
//  2. builds identity page tables for the low 16 MiB (user-accessible,
//     2 MiB blocks) plus the device window, aliased into the high half via
//     TTBR1 — the split Linux uses, which exercises Captive's dual-root
//     PCID path (§2.7.5) on every syscall,
//  3. enables the MMU and continues executing at the high alias,
//  4. drops to EL0 at UserBase.
//
// Syscalls (SVC from EL0) are handled at the high-half vector: putchar
// writes the UART through the high device alias, exit halts the machine
// with the user's x0 preserved.
func BuildKernel() ([]byte, error) { return buildKernel(0) }

// BuildKernelPreemptive assembles the mini-OS kernel with a timer-driven
// two-task round-robin scheduler. On top of BuildKernel's boot flow it arms
// the platform timer for one time slice before dropping to EL0, takes the
// resulting IRQ at the +0x180 (lower-EL) vector, spills the interrupted
// task's full context into its control block, grants the next slice and
// erets into the other task. Task 0 enters at UserBase, task 1 at
// User2Base; either may end the run with SysExit. Because injection points
// are pinned to virtual time (see the CheckIRQ difftest lane), the switch
// schedule — and therefore the interleaved console output — is bit-identical
// across the interpreter, Captive and the QEMU-style baseline.
func BuildKernelPreemptive(slice uint64) ([]byte, error) {
	if slice == 0 {
		return nil, fmt.Errorf("bench: preemptive kernel needs a non-zero time slice")
	}
	return buildKernel(slice)
}

// buildKernel emits the kernel; slice == 0 builds the classic cooperative
// kernel (the exact instruction stream BuildKernel has always produced — the
// bench baselines pin its retired-instruction counts), slice > 0 adds the
// preemptive scheduler.
func buildKernel(slice uint64) ([]byte, error) {
	sched := slice > 0
	p := asm.New(KernelBase)

	// --- boot (identity, MMU off) ---
	p.MovI(asm.SP, KernStack)

	// TTBR0 root[0] -> L2; L2[0] -> L1.
	pte := uint64(ga64.PTEValid | ga64.PTEWrite | ga64.PTEUser)
	p.MovI(0, KernRoot)
	p.MovI(1, KernL2|pte)
	p.Str(1, 0, 0)
	p.MovI(0, KernL2)
	p.MovI(1, KernL1|pte)
	p.Str(1, 0, 0)
	// L1[0..7]: identity 2 MiB blocks covering 16 MiB, user RW.
	p.MovI(0, KernL1)
	p.MovI(1, pte|ga64.PTELarge) // block at PA 0
	p.MovI(2, 8)                 // count
	p.MovI(3, 0x200000)          // block size
	p.Label("ptloop")
	p.Str(1, 0, 0)
	p.Add(1, 1, 3)
	p.AddI(0, 0, 8)
	p.SubsI(2, 2, 1)
	p.BCond(ga64.CondNE, "ptloop")
	// Device window: L1[128] -> 2 MiB block at DeviceBase (kernel-only).
	p.MovI(0, KernL1+128*8)
	p.MovI(1, uint64(ga64.DeviceBase)|uint64(ga64.PTEValid|ga64.PTEWrite)|ga64.PTELarge)
	p.Str(1, 0, 0)
	// TTBR1 root[256] -> same L2 (high alias of everything).
	p.MovI(0, Kern1Root+256*8)
	p.MovI(1, KernL2|pte)
	p.Str(1, 0, 0)

	// Vector base: high alias of the "vectors" label.
	p.Adr(0, "vectors")
	p.MovI(1, HighBase)
	p.Add(0, 0, 1)
	p.Msr(ga64.SysVBAR, 0)

	// Load translation bases and switch the MMU on.
	p.MovI(0, KernRoot)
	p.Msr(ga64.SysTTBR0, 0)
	p.MovI(0, Kern1Root)
	p.Msr(ga64.SysTTBR1, 0)
	p.MovI(0, ga64.SCTLRMmuEnable)
	p.Msr(ga64.SysSCTLR, 0)

	// Jump to the high alias.
	p.Adr(0, "high")
	p.MovI(1, HighBase)
	p.Add(0, 0, 1)
	p.Br(0)

	p.Label("high")
	p.MovI(asm.SP, HighBase+KernStack)
	if sched {
		// Keep the timer line masked until the first user entry: the
		// kernel never runs with interrupts open.
		p.MovI(0, 1)
		p.Msr(ga64.SysDAIF, 0)
		// Task 1 starts cold — its control block needs only an entry
		// point, a stack and an EL0 SPSR; guest RAM is zeroed, so the
		// GPR slots are already the zeros a fresh task expects.
		p.MovI(0, HighBase+TaskCB1)
		p.MovI(1, User2Base)
		p.Str(1, 0, tcbELR)
		p.MovI(1, User2Stack)
		p.Str(1, 0, tcbSP)
		p.MovI(1, 0)
		p.Str(1, 0, tcbSPSR)
		// Task 0 runs first (x1 is still zero).
		p.MovI(0, HighBase+CurTaskVar)
		p.Str(1, 0, 0)
		// Arm the first slice and unmask the timer line; the IRQ is
		// delivered once the eret below opens PSTATE.I at EL0.
		p.MovI(0, HighBase+uint64(ga64.TimerBase))
		p.Mrs(1, ga64.SysCNTVCT)
		p.MovI(2, slice)
		p.Add(1, 1, 2)
		p.Str(1, 0, device.TimerCmp)
		p.MovI(1, 1)
		p.Str(1, 0, device.TimerCtrl)
		p.Msr(ga64.SysIRQEN, 1) // x1 == 1 == IRQENTimer
	}
	// Enter the user program at EL0.
	p.MovI(0, UserBase)
	p.Msr(ga64.SysELR, 0)
	p.MovI(0, 0) // SPSR: EL0, flags clear
	p.Msr(ga64.SysSPSR, 0)
	p.MovI(asm.SP, UserStack) // user stack (X31 is shared; EL0 starts here)
	p.Eret()

	// --- exception vectors ---
	// The table must sit at a 0x200-aligned address; each entry is 0x80
	// bytes apart.
	p.AlignTo(0x200)
	p.Label("vectors")
	// +0x000: synchronous from EL1 — kernel bug; halt loudly.
	p.Hlt(0x3FFF)
	p.AlignTo(0x80)
	// +0x080: IRQ from EL1 — unused.
	p.Hlt(0x3FFE)
	p.AlignTo(0x100)
	// +0x100: synchronous from EL0 — syscalls and user faults.
	p.B("sync_el0")
	p.AlignTo(0x180)
	// +0x180: IRQ from EL0 — the scheduler's time slice, when built.
	if sched {
		p.B("irq_el0")
	} else {
		p.Hlt(0x3FFD)
	}

	p.Label("sync_el0")
	// Save the user's SP and switch to the kernel stack: TPIDR is the
	// scratch register the mini-OS claims for itself.
	p.Msr(ga64.SysTPIDR, asm.SP)
	p.MovI(asm.SP, HighBase+KernStack)
	p.SubI(asm.SP, asm.SP, 64)
	p.Stp(10, 11, asm.SP, 0)
	p.Stp(12, asm.LR, asm.SP, 2)

	p.Mrs(10, ga64.SysESR)
	p.Lsr(11, 10, 26) // EC
	p.CmpI(11, ga64.ECSVC)
	p.BCond(ga64.CondNE, "userfault")
	p.MovI(11, 0xFFFF)
	p.And(10, 10, 11) // ISS = syscall number

	p.CmpI(10, SysExit)
	p.BCond(ga64.CondEQ, "sys_exit")
	p.CmpI(10, SysPutchar)
	p.BCond(ga64.CondEQ, "sys_putchar")
	p.CmpI(10, SysCycles)
	p.BCond(ga64.CondEQ, "sys_cycles")
	p.CmpI(10, SysYield)
	p.BCond(ga64.CondEQ, "sysdone")
	p.Hlt(0x3FFC) // unknown syscall

	p.Label("sys_exit")
	// Exit code stays in X0 for the harness; halt the machine.
	p.Hlt(1)

	p.Label("sys_putchar")
	p.MovI(10, HighBase+uint64(ga64.UARTBase))
	p.Str32(0, 10, 0)
	p.B("sysdone")

	p.Label("sys_cycles")
	p.Mrs(0, ga64.SysCNTVCT)
	p.B("sysdone")

	p.Label("sysdone")
	p.Ldp(10, 11, asm.SP, 0)
	p.Ldp(12, asm.LR, asm.SP, 2)
	p.AddI(asm.SP, asm.SP, 64)
	p.Mrs(asm.SP, ga64.SysTPIDR) // restore user SP
	p.Eret()

	p.Label("userfault")
	// A genuine user fault: record FAR in X1 and end the run.
	p.Mrs(1, ga64.SysFAR)
	p.Hlt(0x3FF0)

	if sched {
		emitScheduler(p, slice)
	}

	return p.Assemble()
}

// emitScheduler emits the timer-IRQ context switch: spill the interrupted
// task into TaskCB[CurTask], re-arm the timer one slice ahead (which drops
// the level-triggered line), flip CurTask and restore the other task.
// PSTATE.I is set for the whole handler (TakeException raised it), so the
// switch itself can never be preempted.
func emitScheduler(p *asm.Program, slice uint64) {
	p.Label("irq_el0")
	// Stash x0/x1 so the TCB pointer can be computed; everything else is
	// still the interrupted task's and is spilled untouched below.
	p.Msr(ga64.SysSCRATCH0, 0)
	p.Msr(ga64.SysSCRATCH1, 1)
	// x0 = &TaskCB[CurTask] (high alias).
	p.MovI(1, HighBase+CurTaskVar)
	p.Ldr(0, 1, 0)
	p.Lsl(0, 0, tcbShift)
	p.MovI(1, HighBase+TaskCB0)
	p.Add(0, 0, 1)
	// Spill x2..x30 straight into their slots.
	for r := asm.Reg(2); r <= 28; r += 2 {
		p.Stp(r, r+1, 0, int32(r))
	}
	p.Str(asm.LR, 0, 30*8)
	// SP moves through TPIDR (the mini-OS's scratch sysreg — dead outside
	// the never-preempted sync handler).
	p.Msr(ga64.SysTPIDR, asm.SP)
	p.Mrs(2, ga64.SysTPIDR)
	p.Str(2, 0, tcbSP)
	p.Mrs(2, ga64.SysELR)
	p.Str(2, 0, tcbELR)
	p.Mrs(2, ga64.SysSPSR)
	p.Str(2, 0, tcbSPSR)
	p.Mrs(2, ga64.SysSCRATCH0)
	p.Str(2, 0, 0*8)
	p.Mrs(2, ga64.SysSCRATCH1)
	p.Str(2, 0, 1*8)
	// Grant the next slice; moving CNTVCT+slice into cmp also drops the
	// level-triggered line, so the eret below cannot re-trap immediately.
	p.MovI(2, HighBase+uint64(ga64.TimerBase))
	p.Mrs(3, ga64.SysCNTVCT)
	p.MovI(4, slice)
	p.Add(3, 3, 4)
	p.Str(3, 2, device.TimerCmp)
	// Flip CurTask and point x0 at the other control block.
	p.MovI(2, HighBase+CurTaskVar)
	p.Ldr(3, 2, 0)
	p.EorI(3, 3, 1)
	p.Str(3, 2, 0)
	p.Lsl(3, 3, tcbShift)
	p.MovI(0, HighBase+TaskCB0)
	p.Add(0, 0, 3)
	// Restore the incoming task: sysregs first (while scratch is free),
	// then the GPR file, x0 itself last since it is the base pointer.
	p.Ldr(2, 0, tcbELR)
	p.Msr(ga64.SysELR, 2)
	p.Ldr(2, 0, tcbSPSR)
	p.Msr(ga64.SysSPSR, 2)
	p.Ldr(2, 0, tcbSP)
	p.Msr(ga64.SysTPIDR, 2)
	p.Mrs(asm.SP, ga64.SysTPIDR)
	p.Ldr(asm.LR, 0, 30*8)
	for r := asm.Reg(2); r <= 28; r += 2 {
		p.Ldp(r, r+1, 0, int32(r))
	}
	p.Ldr(1, 0, 1*8)
	p.Ldr(0, 0, 0*8)
	p.Eret()
}

// BuildPreemptiveImage pairs the preemptive kernel with two user tasks.
func BuildPreemptiveImage(task0, task1 *asm.Program, slice uint64) (Image, error) {
	kern, err := BuildKernelPreemptive(slice)
	if err != nil {
		return Image{}, fmt.Errorf("bench: kernel: %w", err)
	}
	t0, err := task0.Assemble()
	if err != nil {
		return Image{}, fmt.Errorf("bench: task 0: %w", err)
	}
	t1, err := task1.Assemble()
	if err != nil {
		return Image{}, fmt.Errorf("bench: task 1: %w", err)
	}
	return Image{
		Kernel: kern, Entry: KernelBase,
		User: t0, UserPA: UserBase,
		User2: t1, User2PA: User2Base,
	}, nil
}

// User2Program wraps the second task of a preemptive image: the body runs at
// EL0 from User2Base.
func User2Program() *asm.Program {
	return asm.New(User2Base)
}

// UserProgram wraps a user-mode workload body: the body runs at EL0 from
// UserBase; it must end with Exit (svc #0).
func UserProgram() *asm.Program {
	return asm.New(UserBase)
}

// Image is a loadable guest memory image.
type Image struct {
	Kernel  []byte
	User    []byte // may be nil for bare-metal images
	User2   []byte // second task of a preemptive image; usually nil
	Entry   uint64
	UserPA  uint64
	User2PA uint64
}

// BuildSystemImage pairs the mini-OS kernel with a user program.
func BuildSystemImage(user *asm.Program) (Image, error) {
	kern, err := BuildKernel()
	if err != nil {
		return Image{}, fmt.Errorf("bench: kernel: %w", err)
	}
	uimg, err := user.Assemble()
	if err != nil {
		return Image{}, fmt.Errorf("bench: user program: %w", err)
	}
	return Image{Kernel: kern, User: uimg, Entry: KernelBase, UserPA: UserBase}, nil
}

// BareMetal wraps a self-contained EL1 program (SimBench style).
func BareMetal(p *asm.Program) (Image, error) {
	img, err := p.Assemble()
	if err != nil {
		return Image{}, err
	}
	return Image{Kernel: img, Entry: p.Org()}, nil
}
