// Package ssa implements the domain-specific SSA form of §2.2.2: instruction
// behaviours from the ADL are lowered into actions whose statements read and
// write architectural register banks, memory, the PC and local symbols.
// Offline optimization passes (Fig. 5 of the paper) run over this form at
// levels O1–O4, and the result drives both the generator functions used by
// the JIT (internal/gen) and the reference interpreter.
//
// Terminology follows the paper: *statements* are single-assignment values
// (the s_b_N_M names of Fig. 4); *symbols* are mutable local slots accessed
// with read/write statements. "PHI analysis" promotes symbols to real SSA
// values; "PHI elimination" lowers them back to symbol accesses so the
// generator can map them onto virtual registers.
package ssa

import (
	"fmt"
	"strings"

	"captive/internal/adl"
)

// Op is a statement opcode.
type Op uint8

// Statement opcodes.
const (
	OpConst     Op = iota // Const
	OpReadField           // "struct": read a decoded instruction field (fixed)
	OpBankRead            // "bankregread": Bank, Args[0] = index
	OpBankWrite           // "bankregwrite": Bank, Args[0] = index, Args[1] = value
	OpVarRead             // "read": Sym
	OpVarWrite            // "write": Sym, Args[0] = value
	OpBinary              // BinOp, Args[0,1]
	OpUnary               // UnOp, Args[0]
	OpCast                // Args[0]; Type is the destination
	OpSelect              // Args[0] = cond (u1), Args[1], Args[2]
	OpMemRead             // Width, Args[0] = address
	OpMemWrite            // Width, Args[0] = address, Args[1] = value
	OpReadPC              //
	OpWritePC             // Args[0]; ends the instruction's block
	OpIntrinsic           // Intr, Args = arguments
	OpBranch              // Args[0] = cond, Targets[0] = true, Targets[1] = false
	OpJump                // Targets[0]
	OpReturn              //
	OpPhi                 // PhiIn: per-predecessor values (O4 only)
)

var opNames = [...]string{
	"const", "struct", "bankregread", "bankregwrite", "read", "write",
	"binary", "unary", "cast", "select", "memread", "memwrite",
	"readpc", "writepc", "intrinsic", "branch", "jump", "return", "phi",
}

func (o Op) String() string { return opNames[o] }

// BinOp is a binary operator.
type BinOp uint8

// Binary operators. Comparison results have type u1.
const (
	BinAdd BinOp = iota
	BinSub
	BinMul
	BinDivU
	BinDivS
	BinRemU
	BinRemS
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShrU
	BinShrS
	BinCmpEQ
	BinCmpNE
	BinCmpLTu
	BinCmpLTs
	BinCmpLEu
	BinCmpLEs
	BinCmpGTu
	BinCmpGTs
	BinCmpGEu
	BinCmpGEs
)

var binNames = [...]string{
	"+", "-", "*", "/u", "/s", "%u", "%s", "&", "|", "^", "<<", ">>u", ">>s",
	"==", "!=", "<u", "<s", "<=u", "<=s", ">u", ">s", ">=u", ">=s",
}

func (b BinOp) String() string { return binNames[b] }

// IsCompare reports whether the operator yields a u1.
func (b BinOp) IsCompare() bool { return b >= BinCmpEQ }

// UnOp is a unary operator.
type UnOp uint8

// Unary operators.
const (
	UnNeg UnOp = iota // two's complement negation
	UnNot             // bitwise complement
)

func (u UnOp) String() string {
	if u == UnNeg {
		return "-"
	}
	return "~"
}

// IntrID identifies a generic intrinsic to the backends (emitter,
// interpreter, baseline translator).
type IntrID uint16

// Generic intrinsics. The floating-point group carries guest (ARM-accurate)
// semantics; the Captive backend lowers them to host FP instructions plus
// fix-up (§2.5), the QEMU baseline to helper calls, the interpreter to
// softfloat.
const (
	IntrNone IntrID = iota
	IntrFAdd64
	IntrFSub64
	IntrFMul64
	IntrFDiv64
	IntrFSqrt64
	IntrFMin64
	IntrFMax64
	IntrFNeg64
	IntrFAbs64
	IntrFCmpNZCV // (a, b) -> NZCV nibble
	IntrSCvtF64  // s64 -> f64 bits
	IntrUCvtF64  // u64 -> f64 bits
	IntrFCvtZS64 // f64 bits -> s64 (ARM saturating)
	IntrFCvtZU64 // f64 bits -> u64 (ARM saturating)
	// System behaviours implemented by the guest runtime (§2.2: "complex
	// architectural behaviour ... compiled together with the generated
	// source-code"). All end the translation block.
	IntrSysRead  // (regno) -> value
	IntrSysWrite // (regno, value); may flush TLBs, change translation regime
	IntrSVC      // (imm): supervisor call exception
	IntrBRK      // (imm): breakpoint/undefined exception
	IntrERet     // exception return
	IntrTLBIAll  // invalidate all guest TLB entries
	IntrHlt      // (code): stop the guest machine
	IntrWFI      // wait for interrupt
)

// Intrinsic describes a callable primitive of the behaviour DSL.
type Intrinsic struct {
	Name       string
	ID         IntrID
	Params     []adl.TypeName
	Result     adl.TypeName
	EndsBlock  bool // control may leave the translated block (exceptions)
	SideEffect bool // must not be dead-code eliminated
	// Bank accessors are lowered to OpBankRead/OpBankWrite at build time.
	bankName string
	bankOp   Op
}

// Bank describes a register bank plus its byte layout in the guest register
// file, assigned by the layout pass in internal/gen.
type Bank struct {
	Name   string
	Count  int
	Type   adl.TypeName
	Offset int // byte offset of element 0 in the register file
	Stride int // bytes per element
}

// Symbol is a mutable local slot (a DSL variable or helper parameter).
type Symbol struct {
	Name  string
	Type  adl.TypeName
	Fixed bool // all writes fixed and in fixed control flow (§2.2.2)
}

// Stmt is one SSA statement.
type Stmt struct {
	ID    int
	Op    Op
	Type  adl.TypeName
	Args  []*Stmt
	Block *Block

	Const    uint64
	Field    string
	FieldIdx int // OpReadField: Field's position in the instruction's format
	Bank     *Bank
	Sym      *Symbol
	BinOp    BinOp
	UnOp     UnOp
	FromType adl.TypeName // OpCast source type
	Width    uint8        // OpMemRead/OpMemWrite in bytes
	Intr     *Intrinsic
	Targets  [2]*Block
	PhiIn    map[*Block]*Stmt

	Fixed bool
}

// Terminator reports whether the statement ends a block.
func (s *Stmt) Terminator() bool {
	return s.Op == OpBranch || s.Op == OpJump || s.Op == OpReturn
}

// HasSideEffect reports whether the statement mutates observable state (and
// therefore roots dead-code elimination).
func (s *Stmt) HasSideEffect() bool {
	switch s.Op {
	case OpBankWrite, OpVarWrite, OpMemWrite, OpWritePC, OpBranch, OpJump, OpReturn, OpPhi:
		return true
	case OpIntrinsic:
		return s.Intr.SideEffect
	}
	return false
}

// Block is a basic block.
type Block struct {
	ID    int
	Stmts []*Stmt
}

// Terminator returns the block's final statement (nil if the block is still
// under construction).
func (b *Block) Terminator() *Stmt {
	if len(b.Stmts) == 0 {
		return nil
	}
	t := b.Stmts[len(b.Stmts)-1]
	if t.Terminator() {
		return t
	}
	return nil
}

// Succs returns the block's successors. The slice is the terminator's
// Targets, so it costs no allocation; callers must not modify it.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpBranch:
		return t.Targets[:2:2]
	case OpJump:
		return t.Targets[:1:1]
	}
	return nil
}

// Action is one instruction behaviour (or helper, before inlining) in SSA
// form.
type Action struct {
	Name    string
	Format  *adl.Format
	Instr   *adl.Instr
	Blocks  []*Block
	Entry   *Block
	Symbols []*Symbol

	// EndsBlock is true when the behaviour may change control flow (writes
	// the PC or raises an exception); the translator stops decoding the
	// guest basic block after such an instruction (Fig. 7's end_of_block).
	EndsBlock bool
	// WritesPC is true when the behaviour writes the PC on every path
	// (branches). When false the engines advance the PC by the instruction
	// size themselves.
	WritesPC bool

	nextStmtID  int
	nextBlockID int
}

// NewBlock appends a fresh empty block.
func (a *Action) NewBlock() *Block {
	b := &Block{ID: a.nextBlockID}
	a.nextBlockID++
	a.Blocks = append(a.Blocks, b)
	return b
}

// NewStmt creates a statement in block b.
func (a *Action) NewStmt(b *Block, op Op, ty adl.TypeName, args ...*Stmt) *Stmt {
	s := &Stmt{ID: a.nextStmtID, Op: op, Type: ty, Args: args, Block: b}
	a.nextStmtID++
	b.Stmts = append(b.Stmts, s)
	return s
}

// StmtIDBound returns one more than the largest statement ID the action has
// handed out, so per-statement state can be a slice indexed by Stmt.ID.
func (a *Action) StmtIDBound() int { return a.nextStmtID }

// StmtCount returns the number of statements, the "generated lines" metric
// used for the §3.6.1 offline-optimization comparison.
func (a *Action) StmtCount() int {
	n := 0
	for _, b := range a.Blocks {
		n += len(b.Stmts)
	}
	return n
}

// Preds computes the predecessor map.
func (a *Action) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(a.Blocks))
	for _, b := range a.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// String renders the action in the textual form of Fig. 4/Fig. 6.
func (a *Action) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "action void %s (Instruction inst) [\n", a.Name)
	for _, sym := range a.Symbols {
		fmt.Fprintf(&sb, "  %s %s\n", sym.Type, sym.Name)
	}
	sb.WriteString("] {\n")
	for _, b := range a.Blocks {
		fmt.Fprintf(&sb, "  block b_%d {\n", b.ID)
		for _, s := range b.Stmts {
			fmt.Fprintf(&sb, "    %s\n", s)
		}
		sb.WriteString("  }\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String renders a statement.
func (s *Stmt) String() string {
	name := func(x *Stmt) string { return fmt.Sprintf("s_%d", x.ID) }
	fixed := ""
	if s.Fixed {
		fixed = " [fixed]"
	}
	switch s.Op {
	case OpConst:
		return fmt.Sprintf("%s = const %s %d%s", name(s), s.Type, int64(s.Const), fixed)
	case OpReadField:
		return fmt.Sprintf("%s = struct inst %s%s", name(s), s.Field, fixed)
	case OpBankRead:
		return fmt.Sprintf("%s = bankregread %s %s%s", name(s), s.Bank.Name, name(s.Args[0]), fixed)
	case OpBankWrite:
		return fmt.Sprintf("%s: bankregwrite %s %s %s", name(s), s.Bank.Name, name(s.Args[0]), name(s.Args[1]))
	case OpVarRead:
		return fmt.Sprintf("%s = read %s%s", name(s), s.Sym.Name, fixed)
	case OpVarWrite:
		return fmt.Sprintf("%s: write %s %s", name(s), s.Sym.Name, name(s.Args[0]))
	case OpBinary:
		return fmt.Sprintf("%s = binary %s %s %s%s", name(s), s.BinOp, name(s.Args[0]), name(s.Args[1]), fixed)
	case OpUnary:
		return fmt.Sprintf("%s = unary %s %s%s", name(s), s.UnOp, name(s.Args[0]), fixed)
	case OpCast:
		return fmt.Sprintf("%s = cast %s->%s %s%s", name(s), s.FromType, s.Type, name(s.Args[0]), fixed)
	case OpSelect:
		return fmt.Sprintf("%s = select %s %s %s%s", name(s), name(s.Args[0]), name(s.Args[1]), name(s.Args[2]), fixed)
	case OpMemRead:
		return fmt.Sprintf("%s = memread %d %s", name(s), s.Width, name(s.Args[0]))
	case OpMemWrite:
		return fmt.Sprintf("%s: memwrite %d %s %s", name(s), s.Width, name(s.Args[0]), name(s.Args[1]))
	case OpReadPC:
		return fmt.Sprintf("%s = readpc", name(s))
	case OpWritePC:
		return fmt.Sprintf("%s: writepc %s", name(s), name(s.Args[0]))
	case OpIntrinsic:
		args := make([]string, len(s.Args))
		for i, a := range s.Args {
			args[i] = name(a)
		}
		return fmt.Sprintf("%s = intrinsic %s %s", name(s), s.Intr.Name, strings.Join(args, " "))
	case OpBranch:
		return fmt.Sprintf("%s: branch %s b_%d b_%d", name(s), name(s.Args[0]), s.Targets[0].ID, s.Targets[1].ID)
	case OpJump:
		return fmt.Sprintf("%s: jump b_%d", name(s), s.Targets[0].ID)
	case OpReturn:
		return fmt.Sprintf("%s: return", name(s))
	case OpPhi:
		var parts []string
		for b, v := range s.PhiIn {
			parts = append(parts, fmt.Sprintf("b_%d:%s", b.ID, name(v)))
		}
		return fmt.Sprintf("%s = phi %s%s", name(s), strings.Join(parts, " "), fixed)
	}
	return name(s) + " = ?"
}

// Canonicalize masks v to ty's width, sign- or zero-extending into the
// spare bits so that 64-bit host arithmetic is directly usable. This is the
// value representation contract shared by the interpreter, the constant
// folder and the JIT backends.
func Canonicalize(v uint64, ty adl.TypeName) uint64 {
	bits := ty.Bits()
	if bits == 0 || bits == 64 {
		return v
	}
	if ty == adl.TypeU1 {
		return v & 1
	}
	shift := 64 - uint(bits)
	if ty.Signed() {
		return uint64(int64(v<<shift) >> shift)
	}
	return v << shift >> shift
}

// EvalBinary evaluates a binary operator on canonicalized operands,
// returning a canonicalized result of type ty (for comparisons the result is
// u1 regardless of ty, which is the operand type).
func EvalBinary(op BinOp, ty adl.TypeName, a, b uint64) uint64 {
	switch op {
	case BinAdd:
		return Canonicalize(a+b, ty)
	case BinSub:
		return Canonicalize(a-b, ty)
	case BinMul:
		return Canonicalize(a*b, ty)
	case BinDivU:
		if b == 0 {
			return 0 // ARM semantics: division by zero yields zero
		}
		return Canonicalize(a/b, ty)
	case BinDivS:
		if b == 0 {
			return 0
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return Canonicalize(a, ty)
		}
		return Canonicalize(uint64(int64(a)/int64(b)), ty)
	case BinRemU:
		if b == 0 {
			return 0
		}
		return Canonicalize(a%b, ty)
	case BinRemS:
		if b == 0 {
			return 0
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return 0
		}
		return Canonicalize(uint64(int64(a)%int64(b)), ty)
	case BinAnd:
		return a & b
	case BinOr:
		return a | b
	case BinXor:
		return Canonicalize(a^b, ty)
	case BinShl:
		return Canonicalize(a<<(b&63), ty)
	case BinShrU:
		// Operate on the zero-extended representation of ty's width.
		return Canonicalize((a&widthMask(ty))>>(b&63), ty)
	case BinShrS:
		return Canonicalize(uint64(int64(a)>>(b&63)), ty)
	case BinCmpEQ:
		return b2u(a == b)
	case BinCmpNE:
		return b2u(a != b)
	case BinCmpLTu:
		return b2u(a&widthMask(ty) < b&widthMask(ty))
	case BinCmpLTs:
		return b2u(int64(a) < int64(b))
	case BinCmpLEu:
		return b2u(a&widthMask(ty) <= b&widthMask(ty))
	case BinCmpLEs:
		return b2u(int64(a) <= int64(b))
	case BinCmpGTu:
		return b2u(a&widthMask(ty) > b&widthMask(ty))
	case BinCmpGTs:
		return b2u(int64(a) > int64(b))
	case BinCmpGEu:
		return b2u(a&widthMask(ty) >= b&widthMask(ty))
	case BinCmpGEs:
		return b2u(int64(a) >= int64(b))
	}
	panic("ssa: bad binop")
}

func widthMask(ty adl.TypeName) uint64 {
	bits := ty.Bits()
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// EvalUnary evaluates a unary operator.
func EvalUnary(op UnOp, ty adl.TypeName, a uint64) uint64 {
	if op == UnNeg {
		return Canonicalize(-a, ty)
	}
	return Canonicalize(^a, ty)
}

// EvalCast converts v from one type to another under the canonical
// representation.
func EvalCast(v uint64, from, to adl.TypeName) uint64 {
	_ = from // the canonical form already encodes the source signedness
	return Canonicalize(v, to)
}
