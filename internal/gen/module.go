// Package gen implements the offline generation component (§2.2): it turns a
// parsed and SSA-lowered architecture description into a Module — the
// "architecture-specific module" the online runtime loads. A module contains
// the generated decoder (a decision tree in the style of Theiling / Krishna
// & Austin, §2.3.1), the guest register file layout, and one generator
// function per instruction. Generator functions are partial evaluators over
// the optimized SSA: fixed statements are computed at JIT time, dynamic
// statements are forwarded to an Emitter (the invocation-DAG builder of
// §2.3.2 in the Captive engine).
package gen

import (
	"fmt"

	"captive/internal/adl"
	"captive/internal/ssa"
)

// Layout describes the guest register file in memory. Bank offsets and
// strides are also written into the registry's Bank records so backends can
// compute addresses.
type Layout struct {
	Size     int // total bytes, 16-aligned
	PCOffset int // byte offset of the PC slot
}

// InstrInfo is the per-instruction metadata of a module.
type InstrInfo struct {
	Name   string
	Index  int
	Format *adl.Format
	Action *ssa.Action
	Mask   uint64 // decode mask from the when-clause equality constraints
	Match  uint64
	Pred   adl.Expr    // residual non-equality decode predicate (may be nil)
	fields []fieldDesc // in format order, so OpReadField's FieldIdx indexes it
}

type fieldDesc struct {
	name  string
	shift uint
	mask  uint64
}

// Module is the output of the offline stage for one guest architecture.
type Module struct {
	Arch     string
	File     *adl.File
	Registry *ssa.Registry
	Instrs   []*InstrInfo
	Layout   Layout
	InstBits int // instruction word width (bits)
	Level    ssa.OptLevel

	root *node
}

// Build runs the offline stage: lower every instruction behaviour to SSA,
// optimize at the given level, compute the register file layout and generate
// the decoder tree.
func Build(file *adl.File, reg *ssa.Registry, level ssa.OptLevel) (*Module, error) {
	m := &Module{Arch: file.Arch, File: file, Registry: reg, Level: level}

	// Register file layout: banks in declaration order, naturally aligned,
	// PC slot at the end.
	off := 0
	align := func(n, a int) int { return (n + a - 1) &^ (a - 1) }
	for _, bank := range reg.BankList {
		stride := bank.Type.Bits() / 8
		off = align(off, stride)
		bank.Offset = off
		bank.Stride = stride
		off += stride * bank.Count
	}
	off = align(off, 8)
	m.Layout.PCOffset = off
	off += 8
	m.Layout.Size = align(off, 16)

	for i, instr := range file.Instrs {
		format := file.FormatByName(instr.Format)
		if format == nil {
			return nil, adl.Errorf(instr.Pos, "instr %s: unknown format %s", instr.Name, instr.Format)
		}
		if m.InstBits == 0 {
			m.InstBits = format.TotalBits()
		} else if format.TotalBits() != m.InstBits {
			return nil, adl.Errorf(format.Pos, "format %s is %d bits; module uses %d-bit instructions",
				format.Name, format.TotalBits(), m.InstBits)
		}
		action, err := ssa.Build(file, instr, reg)
		if err != nil {
			return nil, err
		}
		ssa.Optimize(action, level)

		info := &InstrInfo{Name: instr.Name, Index: i, Format: format, Action: action}
		shift := uint(format.TotalBits())
		for _, fl := range format.Fields {
			shift -= uint(fl.Bits)
			info.fields = append(info.fields, fieldDesc{
				name: fl.Name, shift: shift, mask: 1<<uint(fl.Bits) - 1,
			})
		}
		if err := extractConstraints(info, instr.When); err != nil {
			return nil, err
		}
		m.Instrs = append(m.Instrs, info)
	}
	if err := m.buildDecoder(); err != nil {
		return nil, err
	}
	return m, nil
}

// extractConstraints splits the when-clause into equality constraints
// (folded into mask/match for the decision tree) and a residual predicate.
func extractConstraints(info *InstrInfo, when adl.Expr) error {
	if when == nil {
		return nil
	}
	var walk func(e adl.Expr) error
	walk = func(e adl.Expr) error {
		be, ok := e.(*adl.BinaryExpr)
		if !ok {
			return addPred(info, e)
		}
		switch be.Op {
		case adl.ANDAND:
			if err := walk(be.L); err != nil {
				return err
			}
			return walk(be.R)
		case adl.EQ:
			id, okL := be.L.(*adl.IdentExpr)
			num, okR := be.R.(*adl.NumberExpr)
			if okL && okR {
				fd := findField(info, id.Name)
				if fd == nil {
					return adl.Errorf(id.Pos, "when-clause field %s not in format %s", id.Name, info.Format.Name)
				}
				if num.Val&^fd.mask != 0 {
					return adl.Errorf(num.Pos, "when-clause value %#x exceeds field %s", num.Val, id.Name)
				}
				info.Mask |= fd.mask << fd.shift
				info.Match |= (num.Val & fd.mask) << fd.shift
				return nil
			}
			return addPred(info, e)
		default:
			return addPred(info, e)
		}
	}
	return walk(when)
}

func addPred(info *InstrInfo, e adl.Expr) error {
	if info.Pred == nil {
		info.Pred = e
	} else {
		info.Pred = &adl.BinaryExpr{Op: adl.ANDAND, L: info.Pred, R: e}
	}
	return nil
}

func findField(info *InstrInfo, name string) *fieldDesc {
	for i := range info.fields {
		if info.fields[i].name == name {
			return &info.fields[i]
		}
	}
	return nil
}

// Decoded is a decoded guest instruction.
type Decoded struct {
	Info *InstrInfo
	Word uint64
}

// Field extracts a named field from the instruction word.
func (d Decoded) Field(name string) uint64 {
	for _, f := range d.Info.fields {
		if f.name == name {
			return d.Word >> f.shift & f.mask
		}
	}
	panic(fmt.Sprintf("gen: instruction %s has no field %s", d.Info.Name, name))
}

// FieldAt extracts the i-th field in format order, the field an
// OpReadField with FieldIdx i reads.
func (d Decoded) FieldAt(i int) uint64 {
	f := &d.Info.fields[i]
	return d.Word >> f.shift & f.mask
}

// AppendFields appends every field value, in format order, to dst: the
// fields argument of ssa.Interp.Run.
func (d Decoded) AppendFields(dst []uint64) []uint64 {
	for _, f := range d.Info.fields {
		dst = append(dst, d.Word>>f.shift&f.mask)
	}
	return dst
}

// evalWhen evaluates a residual decode predicate on a decoded word.
func evalWhen(d Decoded, e adl.Expr) bool {
	v, ok := evalPredExpr(d, e)
	return ok && v != 0
}

func evalPredExpr(d Decoded, e adl.Expr) (uint64, bool) {
	switch ex := e.(type) {
	case *adl.NumberExpr:
		return ex.Val, true
	case *adl.IdentExpr:
		fd := findField(d.Info, ex.Name)
		if fd == nil {
			return 0, false
		}
		return d.Word >> fd.shift & fd.mask, true
	case *adl.BinaryExpr:
		l, okL := evalPredExpr(d, ex.L)
		r, okR := evalPredExpr(d, ex.R)
		if !okL || !okR {
			return 0, false
		}
		switch ex.Op {
		case adl.EQ:
			return b2u(l == r), true
		case adl.NE:
			return b2u(l != r), true
		case adl.LT:
			return b2u(l < r), true
		case adl.LE:
			return b2u(l <= r), true
		case adl.GT:
			return b2u(l > r), true
		case adl.GE:
			return b2u(l >= r), true
		case adl.ANDAND:
			return b2u(l != 0 && r != 0), true
		case adl.OROR:
			return b2u(l != 0 || r != 0), true
		case adl.AMP:
			return l & r, true
		case adl.PIPE:
			return l | r, true
		case adl.CARET:
			return l ^ r, true
		case adl.SHL:
			return l << (r & 63), true
		case adl.SHR:
			return l >> (r & 63), true
		case adl.PLUS:
			return l + r, true
		case adl.MINUS:
			return l - r, true
		}
	}
	return 0, false
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
