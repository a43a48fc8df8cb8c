// Package ga64 is the GA64 guest architecture model: the embedded ADL
// description, encoders for its instruction formats, the system-register
// and exception model, and the guest MMU page-table walker. The complex
// architectural behaviour lives here as ordinary Go source, mirroring the
// paper's §2.2: "Complex architectural behaviour (such as the operation of
// the MMU) are described in regular source-code files, and compiled
// together with the generated source-code."
package ga64

import (
	_ "embed"
	"fmt"
	"sync"

	"captive/internal/adl"
	"captive/internal/gen"
	"captive/internal/ssa"
)

//go:embed ga64.adl
var Source string

var (
	moduleMu    sync.Mutex
	moduleCache = map[ssa.OptLevel]*gen.Module{}
)

// NewModule returns the GA64 module at the given offline optimization
// level, built by BuildModule once per level and cached.
func NewModule(level ssa.OptLevel) (*gen.Module, error) {
	moduleMu.Lock()
	defer moduleMu.Unlock()
	if m, ok := moduleCache[level]; ok {
		return m, nil
	}
	m, err := BuildModule(level)
	if err != nil {
		return nil, err
	}
	moduleCache[level] = m
	return m, nil
}

// BuildModule parses the GA64 description and builds its module at the given
// offline optimization level, bypassing the cache.
func BuildModule(level ssa.OptLevel) (*gen.Module, error) {
	file, err := adl.Parse(Source)
	if err != nil {
		return nil, err
	}
	reg := ssa.NewRegistry()
	reg.AddBank(file.Bank("X"), "gpr")
	reg.AddBank(file.Bank("VL"), "vl")
	reg.AddBank(file.Bank("VH"), "vh")
	reg.AddBank(file.Bank("NZCV"), "flags")
	return gen.Build(file, reg, level)
}

// MustModule returns the O4 module, panicking on model errors (the model is
// embedded; failure to build it is a programming error).
func MustModule() *gen.Module {
	m, err := NewModule(ssa.O4)
	if err != nil {
		panic(fmt.Sprintf("ga64: model build failed: %v", err))
	}
	return m
}

// Register indices.
const (
	LR = 30 // link register
	SP = 31 // X31 is the stack pointer (GA64 has no zero register)
)

// Condition codes for b_cond/csel (ARM order).
const (
	CondEQ = 0
	CondNE = 1
	CondCS = 2
	CondCC = 3
	CondMI = 4
	CondPL = 5
	CondVS = 6
	CondVC = 7
	CondHI = 8
	CondLS = 9
	CondGE = 10
	CondLT = 11
	CondGT = 12
	CondLE = 13
	CondAL = 14
)

// Instruction format encoders (32-bit words). These mirror the ADL format
// declarations; the assembler and tests build programs with them.

// EncR encodes an R-format instruction.
func EncR(op, rd, rn, rm, sh, fn uint32) uint32 {
	return op<<24 | (rd&31)<<19 | (rn&31)<<14 | (rm&31)<<9 | (sh&63)<<3 | fn&7
}

// EncI encodes an I-format instruction (14-bit immediate).
func EncI(op, rd, rn uint32, imm uint32) uint32 {
	return op<<24 | (rd&31)<<19 | (rn&31)<<14 | imm&0x3FFF
}

// EncMOVW encodes a MOVW-format instruction.
func EncMOVW(op, rd, hw uint32, imm uint32) uint32 {
	return op<<24 | (rd&31)<<19 | (hw&3)<<17 | (imm&0xFFFF)<<1
}

// EncM encodes an M-format instruction (14-bit signed byte offset).
func EncM(op, rt, rn uint32, imm int32) uint32 {
	return op<<24 | (rt&31)<<19 | (rn&31)<<14 | uint32(imm)&0x3FFF
}

// EncP encodes a P-format instruction (9-bit signed scaled offset).
func EncP(op, rt, rt2, rn uint32, imm int32) uint32 {
	return op<<24 | (rt&31)<<19 | (rt2&31)<<14 | (rn&31)<<9 | uint32(imm)&0x1FF
}

// EncB encodes a B26-format instruction (24-bit signed word offset).
func EncB(op uint32, off int32) uint32 {
	return op<<24 | uint32(off)&0xFFFFFF
}

// EncCB encodes a CB-format instruction (19-bit signed word offset).
func EncCB(op, rt uint32, off int32) uint32 {
	return op<<24 | (rt&31)<<19 | uint32(off)&0x7FFFF
}

// EncBC encodes a BC-format instruction (20-bit signed word offset).
func EncBC(op, cond uint32, off int32) uint32 {
	return op<<24 | (cond&15)<<20 | uint32(off)&0xFFFFF
}

// EncS encodes an S-format instruction.
func EncS(op, rt, sr uint32, imm uint32) uint32 {
	return op<<24 | (rt&31)<<19 | (sr&31)<<14 | imm&0x3FFF
}

// Opcode constants (must match the when-clauses in ga64.adl).
const (
	OpAddReg  = 0x01
	OpSubReg  = 0x02
	OpAddsReg = 0x03
	OpSubsReg = 0x04
	OpAndReg  = 0x05
	OpAndsReg = 0x06
	OpOrrReg  = 0x07
	OpEorReg  = 0x08
	OpMul     = 0x09
	OpSdiv    = 0x0A
	OpUdiv    = 0x0B
	OpLslv    = 0x0C
	OpLsrv    = 0x0D
	OpAsrv    = 0x0E
	OpMadd    = 0x0F
	OpMsub    = 0x10
	OpCsel    = 0x13
	OpCsinc   = 0x14
	OpBicReg  = 0x19
	OpCmpReg  = 0x1A
	OpTstReg  = 0x1B

	OpAddImm  = 0x20
	OpSubImm  = 0x21
	OpAddsImm = 0x22
	OpSubsImm = 0x23
	OpAndImm  = 0x24
	OpOrrImm  = 0x25
	OpEorImm  = 0x26
	OpLslImm  = 0x27
	OpLsrImm  = 0x28
	OpAsrImm  = 0x29
	OpCmpImm  = 0x2A
	OpMovz    = 0x2C
	OpMovk    = 0x2D
	OpMovn    = 0x2E

	OpLdr64  = 0x30
	OpLdr32  = 0x31
	OpLdr16  = 0x32
	OpLdr8   = 0x33
	OpLdrs32 = 0x34
	OpLdrs8  = 0x36
	OpStr64  = 0x37
	OpStr32  = 0x38
	OpStr16  = 0x39
	OpStr8   = 0x3A
	OpLdr64R = 0x3B
	OpStr64R = 0x3C
	OpLdr8R  = 0x3D
	OpStr8R  = 0x3E
	OpLdr32R = 0x3F
	OpStr32R = 0x40
	OpLdp    = 0x41
	OpStp    = 0x42

	OpVadd2D  = 0x43
	OpVfadd2D = 0x44
	OpVfmul2D = 0x45
	OpVld1    = 0x46
	OpVst1    = 0x47

	OpB     = 0x50
	OpBL    = 0x51
	OpCbz   = 0x52
	OpCbnz  = 0x53
	OpBCond = 0x54
	OpBr    = 0x55
	OpBlr   = 0x56
	OpRet   = 0x57
	OpAdr   = 0x58

	OpFadd   = 0x60
	OpFsub   = 0x61
	OpFmul   = 0x62
	OpFdiv   = 0x63
	OpFsqrt  = 0x64
	OpFneg   = 0x65
	OpFabs   = 0x66
	OpFmin   = 0x67
	OpFmax   = 0x68
	OpFcmp   = 0x69
	OpFmov   = 0x6A
	OpFmovGX = 0x6B
	OpFmovXG = 0x6C
	OpScvtf  = 0x6D
	OpUcvtf  = 0x6E
	OpFcvtzs = 0x6F
	OpFcvtzu = 0x70
	OpFmadd  = 0x71
	OpFldr   = 0x72
	OpFstr   = 0x73

	OpMrs  = 0x80
	OpMsr  = 0x81
	OpSvc  = 0x82
	OpHlt  = 0x83
	OpEret = 0x84
	OpTlbi = 0x85
	OpNop  = 0x86
	OpBrk  = 0x87
	OpWfi  = 0x88
)
