package port

import (
	"encoding/binary"

	"captive/internal/gen"
	"captive/internal/ssa"
)

// Regs is a view of one hart's guest register file laid out per a generated
// module: the one definition of how every engine reads and writes the
// registers the port's Banks name. The Captive and QEMU-baseline engines
// view their vCPU's register file in host physical memory, the reference
// interpreter its own slice; both embed a Regs.
type Regs struct {
	file           []byte // Layout.Size bytes
	pcOff          int
	gpr, flags, fp *ssa.Bank // fp nil: the guest has no FP bank
	zeroGPR        int       // Banks.ZeroGPR
}

// NewRegs views file as the register file of module m, whose banks g names.
func NewRegs(g Port, m *gen.Module, file []byte) Regs {
	b := g.Banks()
	r := Regs{
		file: file[:m.Layout.Size:m.Layout.Size], pcOff: m.Layout.PCOffset,
		gpr: m.Registry.Bank(b.GPR), flags: m.Registry.Bank(b.Flags), zeroGPR: b.ZeroGPR,
	}
	if b.FP != "" {
		r.fp = m.Registry.Bank(b.FP)
	}
	return r
}

// Reg returns GPR n.
func (r *Regs) Reg(n int) uint64 { return r.ReadBank(r.gpr, uint64(n)) }

// SetReg sets GPR n. Writes to the guest's hardwired-zero register (RISC-V
// x0) are dropped: the generated model relies on that bank slot staying 0.
func (r *Regs) SetReg(n int, v uint64) {
	if n != r.zeroGPR {
		r.WriteBank(r.gpr, uint64(n), v)
	}
}

// FReg returns the low half of FP/vector register n (0 for guests without
// an FP bank).
func (r *Regs) FReg(n int) uint64 {
	if r.fp == nil {
		return 0
	}
	return r.ReadBank(r.fp, uint64(n))
}

// PC returns the guest program counter.
func (r *Regs) PC() uint64 { return binary.LittleEndian.Uint64(r.file[r.pcOff:]) }

// SetPC sets the guest program counter.
func (r *Regs) SetPC(v uint64) { binary.LittleEndian.PutUint64(r.file[r.pcOff:], v) }

// NZCV returns the guest flags nibble.
func (r *Regs) NZCV() uint8 { return r.file[r.flags.Offset] }

// SetNZCV sets the guest flags nibble.
func (r *Regs) SetNZCV(v uint8) { r.file[r.flags.Offset] = v & 0xF }

// RegState returns a copy of the architectural register file below the PC
// slot: the engine-independent state differential tests compare. The PC
// slot is excluded because the DBT engines materialize it only at dispatch
// boundaries, so its resting value after a halt is engine-specific.
func (r *Regs) RegState() []byte {
	out := make([]byte, r.pcOff)
	copy(out, r.file)
	return out
}

// ReadBank reads slot idx of bank b, zero-extended (ssa.State).
func (r *Regs) ReadBank(b *ssa.Bank, idx uint64) uint64 {
	off := b.Offset + int(idx)*b.Stride
	var v [8]byte
	copy(v[:], r.file[off:off+b.Stride])
	return binary.LittleEndian.Uint64(v[:])
}

// WriteBank writes the low bytes of v to slot idx of bank b (ssa.State).
func (r *Regs) WriteBank(b *ssa.Bank, idx uint64, v uint64) {
	off := b.Offset + int(idx)*b.Stride
	var le [8]byte
	binary.LittleEndian.PutUint64(le[:], v)
	copy(r.file[off:off+b.Stride], le[:])
}
