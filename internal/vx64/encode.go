package vx64

import (
	"encoding/binary"
	"fmt"
)

// Instruction encoding: one opcode byte followed by operand bytes whose
// layout is fixed per opcode. Memory operands use a compact variable-length
// form so generated-code size statistics (§3.4 of the paper) are meaningful:
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

// Encode appends the encoding of inst to buf and returns the extended
// buffer. It panics on virtual-register leftovers (Rd/Rs >= 16 for register
// operands), which indicates a register-allocator bug.
func Encode(buf []byte, inst *Inst) []byte {
	ck := func(r uint16) byte {
		if r >= 16 {
			panic(fmt.Sprintf("vx64: unallocated virtual register %d in %v", r, inst))
		}
		return byte(r)
	}
	buf = append(buf, byte(inst.Op))
	switch inst.Op {
	case NOP, RET, SYSCALL, SYSRET, HLT, TLBFLUSHALL:
		// no operands
	case MOVrr, ADDrr, SUBrr, ANDrr, ORrr, XORrr, SHLrr, SHRrr, SARrr,
		MULrr, UMULH, SMULH, UDIVrr, SDIVrr, UREMrr, SREMrr, CMPrr, TESTrr,
		FMOVxx, FSQRT, FNEG, FABS, FMOVxr, FMOVrx,
		CVTSI2SD, CVTUI2SD, CVTSD2SI, CVTSD2UI, FCMP:
		buf = append(buf, ck(inst.Rd), ck(inst.Rs))
	case FADD, FSUB, FMUL, FDIV, FMIN, FMAX:
		buf = append(buf, ck(inst.Rd), ck(inst.Rs), ck(inst.Rs2))
	case MOVI8:
		buf = append(buf, ck(inst.Rd), byte(int8(inst.Imm)))
	case MOVI32:
		buf = append(buf, ck(inst.Rd))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(inst.Imm)))
	case MOVI64:
		buf = append(buf, ck(inst.Rd))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(inst.Imm))
	case ADDri, SUBri, ANDri, ORri, XORri, CMPri, TESTri:
		buf = append(buf, ck(inst.Rd))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(inst.Imm)))
	case SHLri, SHRri, SARri:
		buf = append(buf, ck(inst.Rd), byte(inst.Imm&63))
	case NEGr, NOTr, JMPR, CALLR, WRCR3, RDCR3, INVLPG, RDNZCV:
		buf = append(buf, ck(inst.Rd))
	case LOAD8, LOAD16, LOAD32, LOAD64, LOADS8, LOADS16, LOADS32, LEA, FLD:
		buf = append(buf, ck(inst.Rd))
		buf = appendMem(buf, inst.M)
	case STORE8, STORE16, STORE32, STORE64, FST, IRQCHK:
		buf = append(buf, ck(inst.Rs))
		buf = appendMem(buf, inst.M)
	case SETcc:
		buf = append(buf, byte(inst.Cond), ck(inst.Rd))
	case CMOVcc:
		buf = append(buf, byte(inst.Cond), ck(inst.Rd), ck(inst.Rs))
	case JCC:
		buf = append(buf, byte(inst.Cond))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(inst.Imm)))
	case JMP, CALL:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(inst.Imm)))
	case PROFCNT:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(inst.Imm))
	case HELPER:
		buf = binary.LittleEndian.AppendUint16(buf, uint16(inst.Imm))
	case TRAP:
		buf = append(buf, byte(inst.Imm))
	case INport:
		buf = append(buf, ck(inst.Rd))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(inst.Imm))
	case OUTport:
		buf = append(buf, ck(inst.Rs))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(inst.Imm))
	default:
		panic(fmt.Sprintf("vx64: cannot encode op %v", inst.Op))
	}
	return buf
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

var errTruncated = fmt.Errorf("vx64: truncated instruction")

// Decode decodes one instruction from buf starting at off. It returns the
// instruction and its encoded length.
func Decode(buf []byte, off int) (Inst, int, error) {
	if off >= len(buf) {
		return Inst{}, 0, errTruncated
	}
	var inst Inst
	op := Op(buf[off])
	if op >= opCount {
		return Inst{}, 0, fmt.Errorf("vx64: invalid opcode %#x at %#x", buf[off], off)
	}
	inst.Op = op
	i := off + 1
	need := func(n int) error {
		if i+n > len(buf) {
			return errTruncated
		}
		return nil
	}
	var err error
	switch op {
	case NOP, RET, SYSCALL, SYSRET, HLT, TLBFLUSHALL:
	case MOVrr, ADDrr, SUBrr, ANDrr, ORrr, XORrr, SHLrr, SHRrr, SARrr,
		MULrr, UMULH, SMULH, UDIVrr, SDIVrr, UREMrr, SREMrr, CMPrr, TESTrr,
		FMOVxx, FSQRT, FNEG, FABS, FMOVxr, FMOVrx,
		CVTSI2SD, CVTUI2SD, CVTSD2SI, CVTSD2UI, FCMP:
		if err = need(2); err == nil {
			inst.Rd, inst.Rs = uint16(buf[i]), uint16(buf[i+1])
			i += 2
		}
	case FADD, FSUB, FMUL, FDIV, FMIN, FMAX:
		if err = need(3); err == nil {
			inst.Rd, inst.Rs, inst.Rs2 = uint16(buf[i]), uint16(buf[i+1]), uint16(buf[i+2])
			i += 3
		}
	case MOVI8:
		if err = need(2); err == nil {
			inst.Rd = uint16(buf[i])
			inst.Imm = int64(int8(buf[i+1]))
			i += 2
		}
	case MOVI32:
		if err = need(5); err == nil {
			inst.Rd = uint16(buf[i])
			inst.Imm = int64(int32(binary.LittleEndian.Uint32(buf[i+1:])))
			i += 5
		}
	case MOVI64:
		if err = need(9); err == nil {
			inst.Rd = uint16(buf[i])
			inst.Imm = int64(binary.LittleEndian.Uint64(buf[i+1:]))
			i += 9
		}
	case ADDri, SUBri, ANDri, ORri, XORri, CMPri, TESTri:
		if err = need(5); err == nil {
			inst.Rd = uint16(buf[i])
			inst.Imm = int64(int32(binary.LittleEndian.Uint32(buf[i+1:])))
			i += 5
		}
	case SHLri, SHRri, SARri:
		if err = need(2); err == nil {
			inst.Rd = uint16(buf[i])
			inst.Imm = int64(buf[i+1])
			i += 2
		}
	case NEGr, NOTr, JMPR, CALLR, WRCR3, RDCR3, INVLPG, RDNZCV:
		if err = need(1); err == nil {
			inst.Rd = uint16(buf[i])
			i++
		}
	case LOAD8, LOAD16, LOAD32, LOAD64, LOADS8, LOADS16, LOADS32, LEA, FLD:
		if err = need(1); err == nil {
			inst.Rd = uint16(buf[i])
			i++
			inst.M, i, err = decodeMem(buf, i)
		}
	case STORE8, STORE16, STORE32, STORE64, FST, IRQCHK:
		if err = need(1); err == nil {
			inst.Rs = uint16(buf[i])
			i++
			inst.M, i, err = decodeMem(buf, i)
		}
	case SETcc:
		if err = need(2); err == nil {
			inst.Cond = Cond(buf[i])
			inst.Rd = uint16(buf[i+1])
			i += 2
		}
	case CMOVcc:
		if err = need(3); err == nil {
			inst.Cond = Cond(buf[i])
			inst.Rd = uint16(buf[i+1])
			inst.Rs = uint16(buf[i+2])
			i += 3
		}
	case JCC:
		if err = need(5); err == nil {
			inst.Cond = Cond(buf[i])
			inst.Imm = int64(int32(binary.LittleEndian.Uint32(buf[i+1:])))
			i += 5
		}
	case JMP, CALL:
		if err = need(4); err == nil {
			inst.Imm = int64(int32(binary.LittleEndian.Uint32(buf[i:])))
			i += 4
		}
	case PROFCNT:
		// Zero-extended: Imm is a profile-arena slot index, never negative.
		if err = need(4); err == nil {
			inst.Imm = int64(binary.LittleEndian.Uint32(buf[i:]))
			i += 4
		}
	case HELPER:
		if err = need(2); err == nil {
			inst.Imm = int64(binary.LittleEndian.Uint16(buf[i:]))
			i += 2
		}
	case TRAP:
		if err = need(1); err == nil {
			inst.Imm = int64(buf[i])
			i++
		}
	case INport:
		if err = need(3); err == nil {
			inst.Rd = uint16(buf[i])
			inst.Imm = int64(binary.LittleEndian.Uint16(buf[i+1:]))
			i += 3
		}
	case OUTport:
		if err = need(3); err == nil {
			inst.Rs = uint16(buf[i])
			inst.Imm = int64(binary.LittleEndian.Uint16(buf[i+1:]))
			i += 3
		}
	}
	if err != nil {
		return Inst{}, 0, err
	}
	return inst, i - off, nil
}
