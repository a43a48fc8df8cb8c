package vx64

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Instruction encoding: one opcode byte followed by operand bytes whose
// layout is fixed by the opcode's form (table.go). Memory operands use a
// compact variable-length form so generated-code size statistics (§3.4 of
// the paper) are meaningful:
//
//	byte 0: bits 0–3 base register, bits 4–5 displacement kind
//	        (0 = none, 1 = int8, 2 = int32), bit 6 = has index
//	byte 1: (only if has index) bits 0–3 index register, bits 4–5 log2 scale
//	then the displacement bytes, little-endian.
//
// Branch displacements (JCC/JMP/CALL) are always rel32, measured from the
// end of the instruction, so the DBT's final patch pass (§2.3.4) can fix
// them in place without resizing code.

const (
	dispNone = 0
	disp8    = 1
	disp32   = 2
)

var errTruncated = errors.New("vx64: truncated instruction")

// Encode appends the encoding of inst to buf and returns the extended
// buffer. It panics on virtual-register leftovers (Rd/Rs >= 16 for register
// operands), which indicates a register-allocator bug.
func Encode(buf []byte, inst *Inst) []byte {
	if inst.Op >= opCount {
		panic(fmt.Sprintf("vx64: cannot encode op %v", inst.Op))
	}
	ck := func(r uint16) byte {
		if r >= 16 {
			panic(fmt.Sprintf("vx64: unallocated virtual register %d in %v", r, *inst))
		}
		return byte(r)
	}
	le := binary.LittleEndian
	buf = append(buf, byte(inst.Op))
	switch opTable[inst.Op].Form {
	case FormR:
		buf = append(buf, ck(inst.Rd))
	case FormRR:
		buf = append(buf, ck(inst.Rd), ck(inst.Rs))
	case FormRRR:
		buf = append(buf, ck(inst.Rd), ck(inst.Rs), ck(inst.Rs2))
	case FormRImm8:
		buf = append(buf, ck(inst.Rd), byte(int8(inst.Imm)))
	case FormRShift:
		buf = append(buf, ck(inst.Rd), byte(inst.Imm&63))
	case FormRImm32:
		buf = le.AppendUint32(append(buf, ck(inst.Rd)), uint32(int32(inst.Imm)))
	case FormRImm64:
		buf = le.AppendUint64(append(buf, ck(inst.Rd)), uint64(inst.Imm))
	case FormRdMem:
		buf = appendMem(append(buf, ck(inst.Rd)), inst.M)
	case FormRsMem:
		buf = appendMem(append(buf, ck(inst.Rs)), inst.M)
	case FormCondR:
		buf = append(buf, byte(inst.Cond), ck(inst.Rd))
	case FormCondRR:
		buf = append(buf, byte(inst.Cond), ck(inst.Rd), ck(inst.Rs))
	case FormCondRel32:
		buf = le.AppendUint32(append(buf, byte(inst.Cond)), uint32(int32(inst.Imm)))
	case FormRel32:
		buf = le.AppendUint32(buf, uint32(int32(inst.Imm)))
	case FormUImm32:
		buf = le.AppendUint32(buf, uint32(inst.Imm))
	case FormImm16:
		buf = le.AppendUint16(buf, uint16(inst.Imm))
	case FormImm8:
		buf = append(buf, byte(inst.Imm))
	case FormRdImm16:
		buf = le.AppendUint16(append(buf, ck(inst.Rd)), uint16(inst.Imm))
	case FormRsImm16:
		buf = le.AppendUint16(append(buf, ck(inst.Rs)), uint16(inst.Imm))
	}
	return buf
}

func appendMem(buf []byte, m Mem) []byte {
	var kind byte
	switch {
	case m.Disp == 0:
		kind = dispNone
	case m.Disp >= -128 && m.Disp <= 127:
		kind = disp8
	default:
		kind = disp32
	}
	b0 := byte(m.Base&0xF) | kind<<4
	hasIndex := m.Index != NoReg
	if hasIndex {
		b0 |= 1 << 6
	}
	buf = append(buf, b0)
	if hasIndex {
		var sl byte
		switch m.Scale {
		case 0, 1:
			sl = 0
		case 2:
			sl = 1
		case 4:
			sl = 2
		case 8:
			sl = 3
		default:
			panic(fmt.Sprintf("vx64: bad scale %d", m.Scale))
		}
		buf = append(buf, byte(m.Index&0xF)|sl<<4)
	}
	switch kind {
	case disp8:
		buf = append(buf, byte(int8(m.Disp)))
	case disp32:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Disp))
	}
	return buf
}

// Decode decodes one instruction from buf starting at off. It returns the
// instruction and its encoded length.
func Decode(buf []byte, off int) (Inst, int, error) {
	var inst Inst
	n, err := decode(&inst, buf, off)
	if err != nil {
		return Inst{}, 0, err
	}
	return inst, n, nil
}

// decode decodes one instruction from buf starting at off into *inst and
// returns its encoded length. An opcode byte past the table or a register
// byte of 16 or more is invalid.
func decode(inst *Inst, buf []byte, off int) (int, error) {
	if off >= len(buf) {
		return 0, errTruncated
	}
	*inst = Inst{}
	op := Op(buf[off])
	if op >= opCount {
		return 0, fmt.Errorf("vx64: invalid opcode %#x at %#x", buf[off], off)
	}
	inst.Op = op
	// Each form checks its own length, a constant, so the reads after the
	// check need no bounds checks; regs collects the register bytes.
	b := buf[off+1:]
	n := 0 // operand bytes before any memory operand
	var regs byte
	mem := false
	le := binary.LittleEndian
	switch opTable[op].Form {
	case FormR:
		if n = 1; len(b) >= n {
			inst.Rd, regs = uint16(b[0]), b[0]
		}
	case FormRR:
		if n = 2; len(b) >= n {
			inst.Rd, inst.Rs, regs = uint16(b[0]), uint16(b[1]), b[0]|b[1]
		}
	case FormRRR:
		if n = 3; len(b) >= n {
			inst.Rd, inst.Rs, inst.Rs2, regs = uint16(b[0]), uint16(b[1]), uint16(b[2]), b[0]|b[1]|b[2]
		}
	case FormRImm8:
		if n = 2; len(b) >= n {
			inst.Rd, inst.Imm, regs = uint16(b[0]), int64(int8(b[1])), b[0]
		}
	case FormRShift:
		if n = 2; len(b) >= n {
			inst.Rd, inst.Imm, regs = uint16(b[0]), int64(b[1]), b[0]
		}
	case FormRImm32:
		if n = 5; len(b) >= n {
			inst.Rd, inst.Imm, regs = uint16(b[0]), int64(int32(le.Uint32(b[1:]))), b[0]
		}
	case FormRImm64:
		if n = 9; len(b) >= n {
			inst.Rd, inst.Imm, regs = uint16(b[0]), int64(le.Uint64(b[1:])), b[0]
		}
	case FormRdMem:
		if n = 1; len(b) >= n {
			inst.Rd, regs, mem = uint16(b[0]), b[0], true
		}
	case FormRsMem:
		if n = 1; len(b) >= n {
			inst.Rs, regs, mem = uint16(b[0]), b[0], true
		}
	case FormCondR:
		if n = 2; len(b) >= n {
			inst.Cond, inst.Rd, regs = Cond(b[0]), uint16(b[1]), b[1]
		}
	case FormCondRR:
		if n = 3; len(b) >= n {
			inst.Cond, inst.Rd, inst.Rs, regs = Cond(b[0]), uint16(b[1]), uint16(b[2]), b[1]|b[2]
		}
	case FormCondRel32:
		if n = 5; len(b) >= n {
			inst.Cond, inst.Imm = Cond(b[0]), int64(int32(le.Uint32(b[1:])))
		}
	case FormRel32:
		if n = 4; len(b) >= n {
			inst.Imm = int64(int32(le.Uint32(b)))
		}
	case FormUImm32:
		// Zero-extended: PROFCNT's Imm is a profile-arena slot, never negative.
		if n = 4; len(b) >= n {
			inst.Imm = int64(le.Uint32(b))
		}
	case FormImm16:
		if n = 2; len(b) >= n {
			inst.Imm = int64(le.Uint16(b))
		}
	case FormImm8:
		if n = 1; len(b) >= n {
			inst.Imm = int64(b[0])
		}
	case FormRdImm16:
		if n = 3; len(b) >= n {
			inst.Rd, inst.Imm, regs = uint16(b[0]), int64(le.Uint16(b[1:])), b[0]
		}
	case FormRsImm16:
		if n = 3; len(b) >= n {
			inst.Rs, inst.Imm, regs = uint16(b[0]), int64(le.Uint16(b[1:])), b[0]
		}
	}
	if len(b) < n {
		return 0, errTruncated
	}
	if regs >= 16 {
		return 0, fmt.Errorf("vx64: invalid register in %v at %#x", op, off)
	}
	i := off + 1 + n
	if mem {
		var err error
		if inst.M, i, err = decodeMem(buf, i); err != nil {
			return 0, err
		}
	}
	return i - off, nil
}

// decodeMem decodes a memory operand starting at buf[i]; it returns the
// operand and the index just past it.
func decodeMem(buf []byte, i int) (Mem, int, error) {
	if i >= len(buf) {
		return Mem{}, i, errTruncated
	}
	b0 := buf[i]
	i++
	m := Mem{Base: Reg(b0 & 0xF), Index: NoReg, Scale: 1}
	if b0&(1<<6) != 0 {
		if i >= len(buf) {
			return Mem{}, i, errTruncated
		}
		b1 := buf[i]
		i++
		m.Index = Reg(b1 & 0xF)
		m.Scale = 1 << ((b1 >> 4) & 3)
	}
	switch (b0 >> 4) & 3 {
	case disp8:
		if i >= len(buf) {
			return Mem{}, i, errTruncated
		}
		m.Disp = int32(int8(buf[i]))
		i++
	case disp32:
		if i+4 > len(buf) {
			return Mem{}, i, errTruncated
		}
		m.Disp = int32(binary.LittleEndian.Uint32(buf[i:]))
		i += 4
	}
	return m, i, nil
}
