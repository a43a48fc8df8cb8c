package adl

// TypeName is a DSL scalar type, as written in source.
type TypeName uint8

// DSL types. All arithmetic is performed on values of at most 64 bits; U1 is
// the boolean type produced by comparisons.
const (
	TypeVoid TypeName = iota
	TypeU1
	TypeU8
	TypeU16
	TypeU32
	TypeU64
	TypeS8
	TypeS16
	TypeS32
	TypeS64
)

var typeNames = [...]string{
	"void", "u1", "u8", "u16", "u32", "u64", "s8", "s16", "s32", "s64",
}

func (t TypeName) String() string { return typeNames[t] }

// Bits returns the width of the type in bits.
func (t TypeName) Bits() int {
	switch t {
	case TypeU1:
		return 1
	case TypeU8, TypeS8:
		return 8
	case TypeU16, TypeS16:
		return 16
	case TypeU32, TypeS32:
		return 32
	case TypeU64, TypeS64:
		return 64
	}
	return 0
}

// Signed reports whether the type is signed.
func (t TypeName) Signed() bool { return t >= TypeS8 }

func tokenType(k Kind) TypeName {
	switch k {
	case KwVoid:
		return TypeVoid
	case KwU1:
		return TypeU1
	case KwU8:
		return TypeU8
	case KwU16:
		return TypeU16
	case KwU32:
		return TypeU32
	case KwU64:
		return TypeU64
	case KwS8:
		return TypeS8
	case KwS16:
		return TypeS16
	case KwS32:
		return TypeS32
	case KwS64:
		return TypeS64
	}
	return TypeVoid
}

// File is a parsed ADL description.
type File struct {
	Arch     string
	WordSize int
	Banks    []*Bank
	Formats  []*Format
	Helpers  []*Helper
	Instrs   []*Instr
}

// Bank declares a register bank: a fixed-size array of registers of one type.
type Bank struct {
	Name  string
	Count int
	Type  TypeName
	Pos   Pos
}

// Field is one bit field of an instruction format, most significant first.
type Field struct {
	Name string
	Bits int
}

// Format declares an instruction format as a sequence of bit fields covering
// the instruction word from the most significant bit downwards.
type Format struct {
	Name   string
	Fields []Field
	Pos    Pos
}

// TotalBits returns the summed field width.
func (f *Format) TotalBits() int {
	n := 0
	for _, fl := range f.Fields {
		n += fl.Bits
	}
	return n
}

// Field returns the named field, or nil.
func (f *Format) Field(name string) *Field {
	if i := f.FieldIndex(name); i >= 0 {
		return &f.Fields[i]
	}
	return nil
}

// FieldIndex returns the position of the named field in f.Fields, or -1.
func (f *Format) FieldIndex(name string) int {
	for i := range f.Fields {
		if f.Fields[i].Name == name {
			return i
		}
	}
	return -1
}

// Param is a helper parameter.
type Param struct {
	Type TypeName
	Name string
}

// Helper is a callable behaviour function; helpers are inlined into
// instruction behaviours during offline optimization (§2.2.2).
type Helper struct {
	Name   string
	Result TypeName
	Params []Param
	Body   *BlockStmt
	Pos    Pos
}

// Instr is an instruction: a format reference, decode constraints ("when"),
// and a behaviour body.
type Instr struct {
	Name   string
	Format string
	When   Expr // nil when unconstrained; conjunction of field==const
	Body   *BlockStmt
	Pos    Pos
}

// Stmt is a behaviour statement.
type Stmt interface{ stmtNode() }

// BlockStmt is a braced statement list.
type BlockStmt struct {
	Stmts []Stmt
	Pos   Pos
}

// VarDeclStmt declares (and optionally initializes) a local variable.
type VarDeclStmt struct {
	Type TypeName
	Name string
	Init Expr // may be nil
	Pos  Pos
}

// AssignStmt assigns to a local variable.
type AssignStmt struct {
	Name string
	Val  Expr
	Pos  Pos
}

// IfStmt is a conditional.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	Pos  Pos
}

// ReturnStmt exits the behaviour (or helper).
type ReturnStmt struct {
	Val Expr // may be nil
	Pos Pos
}

// ExprStmt evaluates an expression for its side effects (a call).
type ExprStmt struct {
	X   Expr
	Pos Pos
}

func (*BlockStmt) stmtNode()   {}
func (*VarDeclStmt) stmtNode() {}
func (*AssignStmt) stmtNode()  {}
func (*IfStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()  {}
func (*ExprStmt) stmtNode()    {}

// Expr is a behaviour expression.
type Expr interface {
	exprNode()
	Position() Pos
}

// NumberExpr is an integer literal.
type NumberExpr struct {
	Val uint64
	Pos Pos
}

// IdentExpr references a local variable or helper parameter.
type IdentExpr struct {
	Name string
	Pos  Pos
}

// FieldExpr is `inst.field`: a read of a decoded instruction field, which is
// a *fixed* (translation-time) value in the terminology of §2.2.2.
type FieldExpr struct {
	Field string
	Pos   Pos
}

// CallExpr calls an intrinsic or an ADL helper.
type CallExpr struct {
	Name string
	Args []Expr
	Pos  Pos
}

// UnaryExpr applies -, ~ or !.
type UnaryExpr struct {
	Op  Kind
	X   Expr
	Pos Pos
}

// BinaryExpr applies an arithmetic, logical or comparison operator.
type BinaryExpr struct {
	Op   Kind
	L, R Expr
	Pos  Pos
}

// CondExpr is the ternary ?: operator.
type CondExpr struct {
	Cond, Then, Else Expr
	Pos              Pos
}

// CastExpr is an explicit conversion `(type) expr`.
type CastExpr struct {
	Type TypeName
	X    Expr
	Pos  Pos
}

func (*NumberExpr) exprNode() {}
func (*IdentExpr) exprNode()  {}
func (*FieldExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*CondExpr) exprNode()   {}
func (*CastExpr) exprNode()   {}

// Position returns the source position of the expression.
func (e *NumberExpr) Position() Pos { return e.Pos }

// Position returns the source position of the expression.
func (e *IdentExpr) Position() Pos { return e.Pos }

// Position returns the source position of the expression.
func (e *FieldExpr) Position() Pos { return e.Pos }

// Position returns the source position of the expression.
func (e *CallExpr) Position() Pos { return e.Pos }

// Position returns the source position of the expression.
func (e *UnaryExpr) Position() Pos { return e.Pos }

// Position returns the source position of the expression.
func (e *BinaryExpr) Position() Pos { return e.Pos }

// Position returns the source position of the expression.
func (e *CondExpr) Position() Pos { return e.Pos }

// Position returns the source position of the expression.
func (e *CastExpr) Position() Pos { return e.Pos }

// Bank returns the named bank, or nil.
func (f *File) Bank(name string) *Bank {
	for _, b := range f.Banks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// FormatByName returns the named format, or nil.
func (f *File) FormatByName(name string) *Format {
	for _, fm := range f.Formats {
		if fm.Name == name {
			return fm
		}
	}
	return nil
}

// HelperByName returns the named helper, or nil.
func (f *File) HelperByName(name string) *Helper {
	for _, h := range f.Helpers {
		if h.Name == name {
			return h
		}
	}
	return nil
}
