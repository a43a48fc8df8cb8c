package asm

import (
	"testing"

	"captive/internal/guest/rv64"
	"captive/internal/interp"
)

// newMachine creates the unified reference interpreter for the RV64 guest —
// the assembler is only trusted as far as the generated decoder accepts its
// encodings, so every builder is executed through the golden engine.
func newMachine(t *testing.T) *interp.Machine {
	t.Helper()
	return interp.New(rv64.Port{}, rv64.MustModule(), 1<<20)
}

// run assembles p and executes it on the reference interpreter.
func run(t *testing.T, p *Program) *interp.Machine {
	t.Helper()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	if err := m.LoadImage(img, p.Org(), p.Org()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLiRoundTrip executes li for constants across every materialization
// strategy and checks the register value — the assembler is only trusted as
// far as the generated decoder accepts its encodings.
func TestLiRoundTrip(t *testing.T) {
	consts := []uint64{
		0, 1, 2047, 0xFFFFFFFFFFFFF800, // addi path (incl. negative)
		4096, 0x12345000, 0x7FFFF800, 0xFFFFFFFF80000000, // lui+addiw path
		0x123456789ABCDEF0, 0xFFFFFFFFFFFFFFFF, 1 << 63, 0xCAFEBABE12345678, // chunk path
	}
	p := New(0x1000)
	for i, c := range consts {
		p.Li(Reg(10+i), c)
	}
	p.Ecall()
	m := run(t, p)
	for i, c := range consts {
		if got := m.Reg(10 + i); got != c {
			t.Errorf("li x%d, %#x: got %#x", 10+i, c, got)
		}
	}
}

// TestBranchesAndCalls covers label fixups in both directions plus jal/jalr.
func TestBranchesAndCalls(t *testing.T) {
	p := New(0x1000)
	p.Li(5, 10)
	p.Li(6, 0)
	p.Label("loop")
	p.Add(6, 6, 5)
	p.Addi(5, 5, -1)
	p.Bne(5, X0, "loop") // backward branch
	p.Jal(RA, "double")  // forward call
	p.Beq(X0, X0, "done")
	p.Label("double")
	p.Add(6, 6, 6)
	p.Ret()
	p.Label("done")
	p.Ecall()
	m := run(t, p)
	if m.Reg(6) != 110 { // (10+9+...+1)*2
		t.Errorf("x6 = %d, want 110", m.Reg(6))
	}
}

// TestMemoryOps checks the store/load encodings (S-format immediate split).
func TestMemoryOps(t *testing.T) {
	p := New(0x1000)
	p.Li(5, 0x20000)
	p.Li(6, 0xCAFEBABE12345678)
	p.Sd(6, 5, -8)
	p.Ld(7, 5, -8)
	p.Lw(8, 5, -8)  // sign-extends 0x12345678
	p.Lbu(9, 5, -1) // 0xCA
	p.Lh(10, 5, -4) // sign-extends 0xBABE
	p.Sw(6, 5, 16)
	p.Lwu(11, 5, 16) // zero-extends
	p.Ecall()
	m := run(t, p)
	if m.Reg(7) != 0xCAFEBABE12345678 || m.Reg(8) != 0x12345678 || m.Reg(9) != 0xCA {
		t.Errorf("loads: %#x %#x %#x", m.Reg(7), m.Reg(8), m.Reg(9))
	}
	if int64(m.Reg(10)) != 0xBABE-0x10000 || m.Reg(11) != 0x12345678 {
		t.Errorf("lh/lwu: %#x %#x", m.Reg(10), m.Reg(11))
	}
}

// TestMulDivGroup pins the M-extension encodings against the spec values.
func TestMulDivGroup(t *testing.T) {
	p := New(0x1000)
	p.Li(5, 0xFFFFFFFFFFFFFFFF) // -1
	p.Li(6, 7)
	p.Mulh(10, 5, 6)   // -1 * 7 -> high = -1
	p.Mulhu(11, 5, 6)  // 2^64-1 * 7 -> high = 6
	p.Mulhsu(12, 5, 6) // -1 * 7u -> high = -1
	p.Div(13, 5, 6)    // -1 / 7 = 0
	p.Rem(14, 5, 6)    // -1 % 7 = -1
	p.Divu(15, 5, 6)   // huge / 7
	p.Ecall()
	m := run(t, p)
	if int64(m.Reg(10)) != -1 || m.Reg(11) != 6 || int64(m.Reg(12)) != -1 {
		t.Errorf("mulh group: %d %d %d", int64(m.Reg(10)), m.Reg(11), int64(m.Reg(12)))
	}
	if m.Reg(13) != 0 || int64(m.Reg(14)) != -1 || m.Reg(15) != ^uint64(0)/7 {
		t.Errorf("div group: %d %d %d", m.Reg(13), int64(m.Reg(14)), m.Reg(15))
	}
}

// TestZicsrEncodings pins the CSR builder encodings against hand-assembled
// reference words and runs them through the model (mscratch round-trip,
// immediate forms, read-only csrr via csrrs rd, csr, x0).
func TestZicsrEncodings(t *testing.T) {
	// Reference encodings (riscv-opcodes): csrrw x5, mscratch(0x340), x6.
	p := New(0x1000)
	p.Csrrw(5, 0x340, 6)
	p.Csrrs(7, 0x340, X0)
	p.Csrrwi(8, 0x340, 21)
	p.Csrrci(9, 0x340, 1)
	p.Mret()
	p.Sret()
	p.SfenceVma()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{
		0x340312F3, // csrrw x5, mscratch, x6
		0x340023F3, // csrrs x7, mscratch, x0
		0x340AD473, // csrrwi x8, mscratch, 21
		0x3400F4F3, // csrrci x9, mscratch, 1
		0x30200073, // mret
		0x10200073, // sret
		0x12000073, // sfence.vma
	}
	for i, w := range want {
		got := uint32(img[4*i]) | uint32(img[4*i+1])<<8 | uint32(img[4*i+2])<<16 | uint32(img[4*i+3])<<24
		if got != w {
			t.Errorf("word %d = %#08x, want %#08x", i, got, w)
		}
	}
}

// TestZicsrRoundTrip runs csr traffic through the machine: mscratch swap
// and the set/clear forms.
func TestZicsrRoundTrip(t *testing.T) {
	p := New(0x1000)
	p.Li(5, 0xF0F0)
	p.Csrw(0x340, 5)      // mscratch = 0xF0F0
	p.Csrrs(6, 0x340, X0) // x6 = 0xF0F0
	p.Li(7, 0x00FF)
	p.Csrrs(8, 0x340, 7) // x8 = 0xF0F0; mscratch |= 0xFF
	p.Csrrc(9, 0x340, 7) // x9 = 0xF0FF; mscratch &^= 0xFF
	p.Csrr(10, 0x340)    // x10 = 0xF000
	p.Ecall()
	m := run(t, p)
	if m.Reg(6) != 0xF0F0 || m.Reg(8) != 0xF0F0 || m.Reg(9) != 0xF0FF || m.Reg(10) != 0xF000 {
		t.Errorf("csr round trip: %#x %#x %#x %#x", m.Reg(6), m.Reg(8), m.Reg(9), m.Reg(10))
	}
}

// TestLa pins the label-address pseudo: forward and backward references
// materialize the absolute address as lui+addiw.
func TestLa(t *testing.T) {
	p := New(0x1000)
	p.Label("here")
	p.La(5, "fwd")
	p.La(6, "here")
	p.Jal(X0, "fwd")
	p.Label("fwd")
	p.Ecall()
	img, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	if err := m.LoadImage(img, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if m.Reg(5) != p.Addr("fwd") || m.Reg(6) != 0x1000 {
		t.Errorf("la: x5=%#x (want %#x) x6=%#x", m.Reg(5), p.Addr("fwd"), m.Reg(6))
	}
}
