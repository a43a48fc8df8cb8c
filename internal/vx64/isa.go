// Package vx64 implements the VX64 virtual host machine: an x86-64-class
// 64-bit ISA with a byte-level instruction encoding, and a full-system CPU
// interpreter with 4-level hardware page tables, a PCID-tagged TLB,
// protection rings 0–3, software interrupts, fast system calls, port I/O and
// second-level address translation (SLAT).
//
// VX64 stands in for the paper's physical Intel Xeon host (DESIGN.md §1).
// Both DBT engines in this repository emit VX64 machine code into simulated
// host physical memory; the CPU here decodes and executes those bytes, so
// address-translation behaviour (TLB pressure, page walks, permission
// faults, ring crossings) is produced architecturally rather than asserted.
//
// Register conventions used by the DBT backends (mirroring Fig. 10 of the
// paper, which keeps the guest PC in %r15 and the guest register file behind
// %rbp/%r14):
//
//	R15  guest program counter
//	R14  guest register file base (host virtual address)
//	R13  engine state base (softmmu TLB for the QEMU baseline, mode flags)
//	R12  dispatcher scratch
//	R11  stack pointer for CALL/RET
//	R0..R10  allocable by the register allocator
package vx64

import "fmt"

// Reg is a general-purpose register number (0–15).
type Reg uint8

// Well-known registers (see package comment for conventions).
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	RSP       // R11: stack pointer
	RTMP      // R12: dispatcher scratch
	RSTA      // R13: engine state base
	RRF       // R14: guest register file base
	RPC       // R15: guest program counter
	NoReg Reg = 0xFF
)

// Op is a VX64 opcode. The encoding is one opcode byte followed by
// operand bytes whose layout is determined entirely by the opcode's form,
// one of the facts of its row in the opcode table (table.go).
type Op uint8

// Opcode space. The groupings follow x86-64 structure: two-operand ALU ops
// that overwrite their destination, separate register/immediate forms,
// explicit flag materialization, AVX-style three-operand scalar FP.
const (
	NOP Op = iota

	// Data movement.
	MOVrr // rd <- rs
	MOVI8 // rd <- signext(imm8)
	MOVI32
	MOVI64

	// Memory. LOADSn sign-extends; LOADn zero-extends.
	LOAD8
	LOAD16
	LOAD32
	LOAD64
	LOADS8
	LOADS16
	LOADS32
	STORE8
	STORE16
	STORE32
	STORE64
	LEA

	// Two-operand ALU, register and immediate forms. Set Z,S,C,O.
	ADDrr
	ADDri
	SUBrr
	SUBri
	ANDrr
	ANDri
	ORrr
	ORri
	XORrr
	XORri
	SHLrr
	SHLri
	SHRrr
	SHRri
	SARrr
	SARri
	MULrr // low 64 bits; sets no meaningful C/O (documented deviation)
	UMULH // high 64 bits of unsigned product
	SMULH // high 64 bits of signed product
	UDIVrr
	SDIVrr
	UREMrr
	SREMrr
	NEGr
	NOTr

	// Comparison / flags.
	CMPrr
	CMPri
	TESTrr
	TESTri
	SETcc  // rd <- 0/1 from condition byte
	CMOVcc // rd <- rs when condition holds
	RDNZCV // rd <- N<<3|Z<<2|C<<1|V packed nibble from FLAGS (x86 carry sense)

	// Control flow.
	JCC  // cond byte + rel32 (relative to end of instruction)
	JMP  // rel32
	JMPR // indirect via register
	CALL // rel32; pushes return address at [RSP-8]
	CALLR
	RET

	// System.
	HELPER  // imm16: call a registered native runtime function (same ring)
	TRAP    // imm8: software interrupt, VM exit to the ring-0 handler
	SYSCALL // fast privilege crossing into the ring-0 handler
	SYSRET
	HLT
	INport  // rd <- port[imm16]
	OUTport // port[imm16] <- rs
	WRCR3   // privileged: load CR3 (bit 63 = no-flush/PCID switch)
	RDCR3
	INVLPG      // privileged: invalidate TLB entry for VA in rs
	TLBFLUSHALL // privileged: flush entire TLB

	// Scalar floating point (AVX-style three-operand where applicable).
	FLD    // xd <- mem (64-bit)
	FST    // mem <- xs
	FMOVxr // xd <- gpr bits
	FMOVrx // rd <- xreg bits
	FMOVxx
	FADD // xd <- xa op xb, x86 SSE NaN semantics
	FSUB
	FMUL
	FDIV
	FSQRT // xd <- sqrt(xa); negative input yields the x86 indefinite NaN
	FMIN
	FMAX
	FNEG
	FABS
	FCMP     // UCOMISD: sets Z,C,U (U = "unordered", the PF analogue)
	CVTSI2SD // xd <- f64(int64 rs)
	CVTUI2SD // xd <- f64(uint64 rs)
	CVTSD2SI // rd <- int64(xs), truncating, x86 indefinite on NaN/overflow
	CVTSD2UI

	// IRQCHK traps (TrapIRQ) when rs >= mem64[m]: the block-boundary
	// interrupt-deadline check the DBT engines fuse into every block's
	// instrumentation prologue. Store-shaped (rs is a pure source); does not
	// end a superblock — a non-firing check is a straight-line no-op.
	IRQCHK

	// PROFCNT bumps the per-block profile cell Imm in the CPU's profile
	// arena (runs + attributed cycles) and fires the block-entry trace hook
	// when one is installed. It is pure instrumentation: no registers, no
	// guest-visible state, no memory operand, zero cost — the simulated
	// cycle model must be bit-identical with and without it.
	PROFCNT

	opCount // number of opcodes (keep last)
)

// Cond is a condition code for JCC/SETcc, in terms of the FLAGS produced by
// the ALU and FCMP (C has the x86 borrow sense for SUB/CMP).
type Cond uint8

// Condition codes.
const (
	CondEQ  Cond = iota // Z
	CondNE              // !Z
	CondLT              // signed <   (S != O)
	CondGE              // signed >=  (S == O)
	CondLE              // signed <=  (Z or S != O)
	CondGT              // signed >   (!Z and S == O)
	CondB               // unsigned < (C)
	CondAE              // unsigned >= (!C)
	CondBE              // unsigned <= (C or Z)
	CondA               // unsigned >  (!C and !Z)
	CondS               // negative (S)
	CondNS              // !S
	CondO               // overflow
	CondNO              // !overflow
	CondUO              // unordered (U, after FCMP)
	CondNUO             // ordered
	condCount
)

var condNames = [condCount]string{
	"eq", "ne", "lt", "ge", "le", "gt", "b", "ae", "be", "a",
	"s", "ns", "o", "no", "uo", "nuo",
}

// String returns the condition mnemonic.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond%d", uint8(c))
}

// Mem describes a memory operand [Base + Index*Scale + Disp].
type Mem struct {
	Base  Reg
	Index Reg // NoReg when absent
	Scale uint8
	Disp  int32
}

// String renders the operand in AT&T-ish syntax.
func (m Mem) String() string {
	s := fmt.Sprintf("%d(r%d", m.Disp, m.Base)
	if m.Index != NoReg {
		s += fmt.Sprintf(",r%d,%d", m.Index, m.Scale)
	}
	return s + ")"
}

// Inst is a decoded (or to-be-encoded) VX64 instruction. The same struct is
// used by the DBT backends as their low-level IR — with virtual register
// numbers in Rd/Rs — and, after register allocation, as the final machine
// instruction handed to the encoder. This mirrors §2.3.2: "the low-level IR
// is effectively x86 machine instructions, but with virtual register
// operands in place of physical registers".
type Inst struct {
	Op   Op
	Cond Cond
	Rd   uint16 // destination GPR or FP register (uint16 so it can hold a vreg id)
	Rs   uint16 // source GPR or FP register
	Rs2  uint16 // second source (three-operand FP)
	M    Mem
	Imm  int64

	// MBaseV/MIndexV carry virtual register ids for the memory operand
	// while the instruction is still in IR form; the register allocator
	// rewrites them into M.Base/M.Index.
	MBaseV  uint16
	MIndexV uint16

	// Dead is set by the register allocator for instructions whose results
	// are unused; the encoder skips them (§2.3.3–2.3.4).
	Dead bool

	// restN and restCost are set only on the superblock arena's copy of a
	// run's PROFCNT (buildSuperblock): the count and summed base cost of
	// the ops after it in its run, which the run retires at entry. They
	// fill Inst's padding (it stays 32 bytes), and decode leaves them zero.
	restN    uint8
	restCost uint16
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if o < opCount {
		return opTable[o].Name
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Flags is the VX64 flags register.
type Flags struct {
	Z bool // zero
	S bool // sign
	C bool // carry (x86 borrow sense for SUB/CMP)
	O bool // overflow
	U bool // unordered, set by FCMP (PF analogue)
}

// Eval evaluates a condition against the flags.
func (f Flags) Eval(c Cond) bool {
	switch c {
	case CondEQ:
		return f.Z
	case CondNE:
		return !f.Z
	case CondLT:
		return f.S != f.O
	case CondGE:
		return f.S == f.O
	case CondLE:
		return f.Z || f.S != f.O
	case CondGT:
		return !f.Z && f.S == f.O
	case CondB:
		return f.C
	case CondAE:
		return !f.C
	case CondBE:
		return f.C || f.Z
	case CondA:
		return !f.C && !f.Z
	case CondS:
		return f.S
	case CondNS:
		return !f.S
	case CondO:
		return f.O
	case CondNO:
		return !f.O
	case CondUO:
		return f.U
	case CondNUO:
		return !f.U
	}
	return false
}
