package vx64

import (
	"fmt"
	"strings"
)

// Form is an opcode's encoding form: the operand bytes that follow the
// opcode byte, in order (encode.go). rd, rs and rs2 are register bytes,
// cond a condition byte, mem a memory operand; immediates are
// little-endian and sign-extended unless marked u.
type Form uint8

// Encoding forms.
const (
	FormNone      Form = iota // (no operands)
	FormR                     // rd
	FormRR                    // rd, rs
	FormRRR                   // rd, rs, rs2
	FormRImm8                 // rd, imm8
	FormRShift                // rd, u8 shift count (encoded modulo 64)
	FormRImm32                // rd, imm32
	FormRImm64                // rd, imm64
	FormRdMem                 // rd, mem
	FormRsMem                 // rs, mem
	FormCondR                 // cond, rd
	FormCondRR                // cond, rd, rs
	FormCondRel32             // cond, rel32
	FormRel32                 // rel32
	FormUImm32                // u32
	FormImm16                 // u16
	FormImm8                  // u8
	FormRdImm16               // rd, u16
	FormRsImm16               // rs, u16
)

// Rel32 reports whether the form ends in a rel32 branch displacement,
// measured from the end of the instruction.
func (f Form) Rel32() bool { return f == FormCondRel32 || f == FormRel32 }

// Mem reports whether the form ends in a memory operand
// [M.Base + M.Index*M.Scale + M.Disp] (MBaseV/MIndexV in IR form).
func (f Form) Mem() bool { return f == FormRdMem || f == FormRsMem }

// Operand is how an instruction uses one register field (Rd, Rs or Rs2):
// read, written or both, and in which register class. A field neither
// read nor written is not encoded.
type Operand uint8

// Operand bits.
const (
	OpUse Operand = 1 << iota // the field's register is read
	OpDef                     // the field's register is written
	OpFP                      // an FP register (X0–X15) rather than a GPR
)

// Use reports that the instruction reads the field's register.
func (o Operand) Use() bool { return o&OpUse != 0 }

// Def reports that the instruction writes the field's register.
func (o Operand) Def() bool { return o&OpDef != 0 }

// FP reports that the field names an FP register.
func (o Operand) FP() bool { return o&OpFP != 0 }

// Dir is the direction of an instruction's memory access.
type Dir uint8

// Access directions.
const (
	NoAccess Dir = iota
	Load
	Store
)

// OpInfo is one row of the opcode table: everything the encoder, the
// decoder, the register allocator, the superblock builder and device
// emulation know about an opcode. Only execRun's semantic switch and the
// cost model's opCost (cost.go) hold further per-opcode facts.
type OpInfo struct {
	Name        string // mnemonic; a trailing "cc" stands for the condition
	Form        Form
	Rd, Rs, Rs2 Operand

	// Dir and Width describe the access the instruction makes, through
	// its memory operand (Form.Mem) or the stack: LEA has the operand
	// without an access, CALL, CALLR and RET access the stack without it.
	// Signed loads sign-extend from Width bytes.
	Dir    Dir
	Width  uint8
	Signed bool

	// Ends reports that the instruction ends a superblock: control flow,
	// helper calls (helpers may redirect the CPU or invalidate code), VM
	// exits and translation-state changes.
	Ends bool
}

// Register-operand shorthands for the table: g for a GPR, x for an FP
// register.
const (
	gDef    = OpDef
	gUse    = OpUse
	gUseDef = OpUse | OpDef
	xDef    = OpDef | OpFP
	xUse    = OpUse | OpFP
)

// opTable is the one description of the VX64 instruction set.
var opTable = [opCount]OpInfo{
	NOP: {Name: "nop"},

	MOVrr:  {Name: "mov", Form: FormRR, Rd: gDef, Rs: gUse},
	MOVI8:  {Name: "movi8", Form: FormRImm8, Rd: gDef},
	MOVI32: {Name: "movi32", Form: FormRImm32, Rd: gDef},
	MOVI64: {Name: "movi64", Form: FormRImm64, Rd: gDef},

	LOAD8:   {Name: "load8", Form: FormRdMem, Rd: gDef, Dir: Load, Width: 1},
	LOAD16:  {Name: "load16", Form: FormRdMem, Rd: gDef, Dir: Load, Width: 2},
	LOAD32:  {Name: "load32", Form: FormRdMem, Rd: gDef, Dir: Load, Width: 4},
	LOAD64:  {Name: "load64", Form: FormRdMem, Rd: gDef, Dir: Load, Width: 8},
	LOADS8:  {Name: "loads8", Form: FormRdMem, Rd: gDef, Dir: Load, Width: 1, Signed: true},
	LOADS16: {Name: "loads16", Form: FormRdMem, Rd: gDef, Dir: Load, Width: 2, Signed: true},
	LOADS32: {Name: "loads32", Form: FormRdMem, Rd: gDef, Dir: Load, Width: 4, Signed: true},
	STORE8:  {Name: "store8", Form: FormRsMem, Rs: gUse, Dir: Store, Width: 1},
	STORE16: {Name: "store16", Form: FormRsMem, Rs: gUse, Dir: Store, Width: 2},
	STORE32: {Name: "store32", Form: FormRsMem, Rs: gUse, Dir: Store, Width: 4},
	STORE64: {Name: "store64", Form: FormRsMem, Rs: gUse, Dir: Store, Width: 8},
	LEA:     {Name: "lea", Form: FormRdMem, Rd: gDef},

	ADDrr:  {Name: "add", Form: FormRR, Rd: gUseDef, Rs: gUse},
	ADDri:  {Name: "addi", Form: FormRImm32, Rd: gUseDef},
	SUBrr:  {Name: "sub", Form: FormRR, Rd: gUseDef, Rs: gUse},
	SUBri:  {Name: "subi", Form: FormRImm32, Rd: gUseDef},
	ANDrr:  {Name: "and", Form: FormRR, Rd: gUseDef, Rs: gUse},
	ANDri:  {Name: "andi", Form: FormRImm32, Rd: gUseDef},
	ORrr:   {Name: "or", Form: FormRR, Rd: gUseDef, Rs: gUse},
	ORri:   {Name: "ori", Form: FormRImm32, Rd: gUseDef},
	XORrr:  {Name: "xor", Form: FormRR, Rd: gUseDef, Rs: gUse},
	XORri:  {Name: "xori", Form: FormRImm32, Rd: gUseDef},
	SHLrr:  {Name: "shl", Form: FormRR, Rd: gUseDef, Rs: gUse},
	SHLri:  {Name: "shli", Form: FormRShift, Rd: gUseDef},
	SHRrr:  {Name: "shr", Form: FormRR, Rd: gUseDef, Rs: gUse},
	SHRri:  {Name: "shri", Form: FormRShift, Rd: gUseDef},
	SARrr:  {Name: "sar", Form: FormRR, Rd: gUseDef, Rs: gUse},
	SARri:  {Name: "sari", Form: FormRShift, Rd: gUseDef},
	MULrr:  {Name: "mul", Form: FormRR, Rd: gUseDef, Rs: gUse},
	UMULH:  {Name: "umulh", Form: FormRR, Rd: gUseDef, Rs: gUse},
	SMULH:  {Name: "smulh", Form: FormRR, Rd: gUseDef, Rs: gUse},
	UDIVrr: {Name: "udiv", Form: FormRR, Rd: gUseDef, Rs: gUse},
	SDIVrr: {Name: "sdiv", Form: FormRR, Rd: gUseDef, Rs: gUse},
	UREMrr: {Name: "urem", Form: FormRR, Rd: gUseDef, Rs: gUse},
	SREMrr: {Name: "srem", Form: FormRR, Rd: gUseDef, Rs: gUse},
	NEGr:   {Name: "neg", Form: FormR, Rd: gUseDef},
	NOTr:   {Name: "not", Form: FormR, Rd: gUseDef},

	CMPrr:  {Name: "cmp", Form: FormRR, Rd: gUse, Rs: gUse},
	CMPri:  {Name: "cmpi", Form: FormRImm32, Rd: gUse},
	TESTrr: {Name: "test", Form: FormRR, Rd: gUse, Rs: gUse},
	TESTri: {Name: "testi", Form: FormRImm32, Rd: gUse},
	SETcc:  {Name: "setcc", Form: FormCondR, Rd: gDef},
	CMOVcc: {Name: "cmovcc", Form: FormCondRR, Rd: gUseDef, Rs: gUse},
	RDNZCV: {Name: "rdnzcv", Form: FormR, Rd: gDef},

	JCC:   {Name: "jcc", Form: FormCondRel32, Ends: true},
	JMP:   {Name: "jmp", Form: FormRel32, Ends: true},
	JMPR:  {Name: "jmpr", Form: FormR, Rd: gUse, Ends: true},
	CALL:  {Name: "call", Form: FormRel32, Dir: Store, Width: 8, Ends: true},
	CALLR: {Name: "callr", Form: FormR, Rd: gUse, Dir: Store, Width: 8, Ends: true},
	RET:   {Name: "ret", Dir: Load, Width: 8, Ends: true},

	HELPER:      {Name: "helper", Form: FormImm16, Ends: true},
	TRAP:        {Name: "trap", Form: FormImm8, Ends: true},
	SYSCALL:     {Name: "syscall", Ends: true},
	SYSRET:      {Name: "sysret", Ends: true},
	HLT:         {Name: "hlt", Ends: true},
	INport:      {Name: "in", Form: FormRdImm16, Rd: gDef, Ends: true},
	OUTport:     {Name: "out", Form: FormRsImm16, Rs: gUse, Ends: true},
	WRCR3:       {Name: "wrcr3", Form: FormR, Rd: gUse, Ends: true},
	RDCR3:       {Name: "rdcr3", Form: FormR, Rd: gDef},
	INVLPG:      {Name: "invlpg", Form: FormR, Rd: gUse, Ends: true},
	TLBFLUSHALL: {Name: "tlbflushall", Ends: true},

	FLD:      {Name: "fld", Form: FormRdMem, Rd: xDef, Dir: Load, Width: 8},
	FST:      {Name: "fst", Form: FormRsMem, Rs: xUse, Dir: Store, Width: 8},
	FMOVxr:   {Name: "fmovxr", Form: FormRR, Rd: xDef, Rs: gUse},
	FMOVrx:   {Name: "fmovrx", Form: FormRR, Rd: gDef, Rs: xUse},
	FMOVxx:   {Name: "fmovxx", Form: FormRR, Rd: xDef, Rs: xUse},
	FADD:     {Name: "fadd", Form: FormRRR, Rd: xDef, Rs: xUse, Rs2: xUse},
	FSUB:     {Name: "fsub", Form: FormRRR, Rd: xDef, Rs: xUse, Rs2: xUse},
	FMUL:     {Name: "fmul", Form: FormRRR, Rd: xDef, Rs: xUse, Rs2: xUse},
	FDIV:     {Name: "fdiv", Form: FormRRR, Rd: xDef, Rs: xUse, Rs2: xUse},
	FSQRT:    {Name: "fsqrt", Form: FormRR, Rd: xDef, Rs: xUse},
	FMIN:     {Name: "fmin", Form: FormRRR, Rd: xDef, Rs: xUse, Rs2: xUse},
	FMAX:     {Name: "fmax", Form: FormRRR, Rd: xDef, Rs: xUse, Rs2: xUse},
	FNEG:     {Name: "fneg", Form: FormRR, Rd: xDef, Rs: xUse},
	FABS:     {Name: "fabs", Form: FormRR, Rd: xDef, Rs: xUse},
	FCMP:     {Name: "fcmp", Form: FormRR, Rd: xUse, Rs: xUse},
	CVTSI2SD: {Name: "cvtsi2sd", Form: FormRR, Rd: xDef, Rs: gUse},
	CVTUI2SD: {Name: "cvtui2sd", Form: FormRR, Rd: xDef, Rs: gUse},
	CVTSD2SI: {Name: "cvtsd2si", Form: FormRR, Rd: gDef, Rs: xUse},
	CVTSD2UI: {Name: "cvtsd2ui", Form: FormRR, Rd: gDef, Rs: xUse},

	IRQCHK:  {Name: "irqchk", Form: FormRsMem, Rs: gUse, Dir: Load, Width: 8},
	PROFCNT: {Name: "profcnt", Form: FormUImm32},
}

// Info returns op's row of the opcode table, which callers only read; op
// must be a valid opcode.
func (o Op) Info() *OpInfo { return &opTable[o] }

// Extend returns v, a value the row's load read, sign-extended from Width
// bytes when the load is signed.
func (r *OpInfo) Extend(v uint64) uint64 {
	if r.Signed {
		return signExtend(v, r.Width)
	}
	return v
}

// MemOp returns the table's GPR load (d == Load) or store of width bytes,
// the load sign-extending when signed. A width other than 1, 2 or 4 moves
// 8 bytes, which no load extends.
func MemOp(d Dir, width uint8, signed bool) Op {
	if width != 1 && width != 2 && width != 4 {
		width, signed = 8, false
	}
	s := 0
	if signed && d == Load {
		s = 1
	}
	return gprMemOps[d][width][s]
}

// gprMemOps indexes the table's GPR loads and stores by direction, width
// and signedness, for MemOp.
var gprMemOps = memOpIndex(&opTable)

// memOpIndex indexes tab's GPR loads and stores for MemOp. It panics when
// two rows claim one cell, so a new row (a fused load, say) cannot silently
// take over the emitters' choice. An empty cell holds NOP (opcode 0), which
// is neither a load nor a store.
func memOpIndex(tab *[opCount]OpInfo) (t [3][9][2]Op) {
	for op := range tab {
		r := &tab[op]
		if !r.Form.Mem() || !(r.Dir == Load && r.Rd.Def() && !r.Rd.FP() || r.Dir == Store && !r.Rs.FP()) {
			continue
		}
		s := 0
		if r.Signed {
			s = 1
		}
		if prev := t[r.Dir][r.Width][s]; prev != NOP {
			panic(fmt.Sprintf("vx64: %v and %v both answer MemOp for %d-byte accesses", prev, Op(op), r.Width))
		}
		t[r.Dir][r.Width][s] = Op(op)
	}
	return t
}

// reg names register n of the operand's class.
func (o Operand) reg(n uint16) string {
	if o.FP() {
		return fmt.Sprintf("x%d", n)
	}
	return fmt.Sprintf("r%d", n)
}

// String renders the instruction for debug listings.
func (i Inst) String() string {
	if i.Op >= opCount {
		return i.Op.String()
	}
	r := &opTable[i.Op]
	name := r.Name
	switch r.Form {
	case FormCondR, FormCondRR, FormCondRel32:
		name = strings.TrimSuffix(name, "cc") + i.Cond.String()
	}
	switch r.Form {
	case FormR, FormCondR:
		return name + " " + r.Rd.reg(i.Rd)
	case FormRR, FormCondRR:
		return name + " " + r.Rd.reg(i.Rd) + ", " + r.Rs.reg(i.Rs)
	case FormRRR:
		return name + " " + r.Rd.reg(i.Rd) + ", " + r.Rs.reg(i.Rs) + ", " + r.Rs2.reg(i.Rs2)
	case FormRImm8, FormRShift, FormRImm32, FormRImm64, FormRdImm16:
		return fmt.Sprintf("%s %s, $%d", name, r.Rd.reg(i.Rd), i.Imm)
	case FormRsImm16:
		return fmt.Sprintf("%s $%d, %s", name, i.Imm, r.Rs.reg(i.Rs))
	case FormRdMem:
		return fmt.Sprintf("%s %s, %s", name, r.Rd.reg(i.Rd), i.M)
	case FormRsMem:
		return fmt.Sprintf("%s %s, %s", name, i.M, r.Rs.reg(i.Rs))
	case FormCondRel32, FormRel32:
		return fmt.Sprintf("%s %+d", name, i.Imm)
	case FormUImm32, FormImm16, FormImm8:
		return fmt.Sprintf("%s #%d", name, i.Imm)
	}
	return name
}
