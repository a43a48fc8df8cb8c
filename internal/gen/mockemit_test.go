package gen

import (
	"math/rand"
	"slices"
	"testing"

	"captive/internal/adl"
	"captive/internal/ssa"
)

// The mock emitter records emitted operations into basic blocks and can then
// execute them against a test machine state. Running the generator function
// (Translate) against this emitter and comparing the machine state with a
// direct ssa.Interp run validates the partial evaluator: fixed statements
// folded at translation time must not change observable behaviour.

type mopKind uint8

const (
	mConst mopKind = iota
	mBankReadFixed
	mBankWriteFixed
	mBankRead
	mBankWrite
	mBinary
	mUnary
	mCast
	mSelect
	mMemRead
	mMemWrite
	mReadPC
	mWritePC
	mIncPC
	mIntrinsic
	mJump
	mBranch
	mReadLocal
	mWriteLocal
)

type mop struct {
	kind    mopKind
	res     Val
	a, b, c Val
	ty      adl.TypeName
	from    adl.TypeName
	binOp   ssa.BinOp
	unOp    ssa.UnOp
	bank    *ssa.Bank
	idx     uint64
	width   uint8
	imm     uint64
	intr    *ssa.Intrinsic
	args    []Val
	tb, fb  BlockRef
	local   LocalRef
}

type mockEmitter struct {
	blocks  [][]mop
	cur     int
	nvals   int
	nlocals int
}

func newMockEmitter() *mockEmitter {
	return &mockEmitter{blocks: make([][]mop, 1)}
}

func (m *mockEmitter) rec(op mop) Val {
	op.res = Val(m.nvals)
	m.nvals++
	m.blocks[m.cur] = append(m.blocks[m.cur], op)
	return op.res
}

func (m *mockEmitter) Const(ty adl.TypeName, v uint64) Val {
	return m.rec(mop{kind: mConst, ty: ty, imm: v})
}
func (m *mockEmitter) BankReadFixed(b *ssa.Bank, idx uint64) Val {
	return m.rec(mop{kind: mBankReadFixed, bank: b, idx: idx})
}
func (m *mockEmitter) BankWriteFixed(b *ssa.Bank, idx uint64, val Val) {
	m.rec(mop{kind: mBankWriteFixed, bank: b, idx: idx, a: val})
}
func (m *mockEmitter) BankRead(b *ssa.Bank, idx Val) Val {
	return m.rec(mop{kind: mBankRead, bank: b, a: idx})
}
func (m *mockEmitter) BankWrite(b *ssa.Bank, idx Val, val Val) {
	m.rec(mop{kind: mBankWrite, bank: b, a: idx, b: val})
}
func (m *mockEmitter) Binary(op ssa.BinOp, ty adl.TypeName, a, b Val) Val {
	return m.rec(mop{kind: mBinary, binOp: op, ty: ty, a: a, b: b})
}
func (m *mockEmitter) Unary(op ssa.UnOp, ty adl.TypeName, a Val) Val {
	return m.rec(mop{kind: mUnary, unOp: op, ty: ty, a: a})
}
func (m *mockEmitter) Cast(from, to adl.TypeName, a Val) Val {
	return m.rec(mop{kind: mCast, from: from, ty: to, a: a})
}
func (m *mockEmitter) Select(ty adl.TypeName, cond, tv, fv Val) Val {
	return m.rec(mop{kind: mSelect, ty: ty, a: cond, b: tv, c: fv})
}
func (m *mockEmitter) MemRead(width uint8, ty adl.TypeName, addr Val) Val {
	return m.rec(mop{kind: mMemRead, width: width, ty: ty, a: addr})
}
func (m *mockEmitter) MemWrite(width uint8, addr, val Val) {
	m.rec(mop{kind: mMemWrite, width: width, a: addr, b: val})
}
func (m *mockEmitter) ReadPC() Val    { return m.rec(mop{kind: mReadPC}) }
func (m *mockEmitter) WritePC(v Val)  { m.rec(mop{kind: mWritePC, a: v}) }
func (m *mockEmitter) IncPC(n uint64) { m.rec(mop{kind: mIncPC, imm: n}) }
func (m *mockEmitter) Intrinsic(intr *ssa.Intrinsic, args []Val) Val {
	return m.rec(mop{kind: mIntrinsic, intr: intr, args: slices.Clone(args)})
}
func (m *mockEmitter) NewBlock() BlockRef {
	m.blocks = append(m.blocks, nil)
	return BlockRef(len(m.blocks) - 1)
}
func (m *mockEmitter) SetBlock(b BlockRef) { m.cur = int(b) }
func (m *mockEmitter) Jump(b BlockRef)     { m.rec(mop{kind: mJump, tb: b}) }
func (m *mockEmitter) Branch(cond Val, t, f BlockRef) {
	m.rec(mop{kind: mBranch, a: cond, tb: t, fb: f})
}
func (m *mockEmitter) AllocLocal(ty adl.TypeName) LocalRef {
	m.nlocals++
	return LocalRef(m.nlocals - 1)
}
func (m *mockEmitter) ReadLocal(l LocalRef, ty adl.TypeName) Val {
	return m.rec(mop{kind: mReadLocal, local: l, ty: ty})
}
func (m *mockEmitter) WriteLocal(l LocalRef, v Val) {
	m.rec(mop{kind: mWriteLocal, local: l, a: v})
}

// mstate is the test machine state shared by the mock executor and the SSA
// interpreter.
type mstate struct {
	banks map[string][]uint64
	pc    uint64
	mem   map[uint64]byte
}

func newMState() *mstate {
	return &mstate{
		banks: map[string][]uint64{"X": make([]uint64, 32), "NZCV": make([]uint64, 1)},
		mem:   make(map[uint64]byte),
	}
}

func (f *mstate) ReadBank(b *ssa.Bank, idx uint64) uint64 { return f.banks[b.Name][idx%32] }
func (f *mstate) WriteBank(b *ssa.Bank, idx uint64, v uint64) {
	f.banks[b.Name][idx%32] = ssa.Canonicalize(v, b.Type)
}
func (f *mstate) ReadPC() uint64   { return f.pc }
func (f *mstate) WritePC(v uint64) { f.pc = v }
func (f *mstate) MemRead(w uint8, addr uint64) (uint64, bool) {
	var v uint64
	for i := uint8(0); i < w; i++ {
		v |= uint64(f.mem[addr+uint64(i)]) << (8 * i)
	}
	return v, true
}
func (f *mstate) MemWrite(w uint8, addr uint64, v uint64) bool {
	for i := uint8(0); i < w; i++ {
		f.mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
	return true
}
func (f *mstate) Intrinsic(id ssa.IntrID, args []uint64) (uint64, bool) {
	if v, ok := ssa.PureIntrinsic(id, args); ok {
		return v, true
	}
	return 0, true
}

func (f *mstate) clone() *mstate {
	g := newMState()
	for k, v := range f.banks {
		copy(g.banks[k], v)
	}
	g.pc = f.pc
	for k, v := range f.mem {
		g.mem[k] = v
	}
	return g
}

func (f *mstate) equal(g *mstate) bool {
	for k := range f.banks {
		for i := range f.banks[k] {
			if f.banks[k][i] != g.banks[k][i] {
				return false
			}
		}
	}
	if f.pc != g.pc || len(f.mem) != len(g.mem) {
		return false
	}
	for k, v := range f.mem {
		if g.mem[k] != v {
			return false
		}
	}
	return true
}

// run executes the recorded operations against st.
func (m *mockEmitter) run(t *testing.T, st *mstate) {
	t.Helper()
	vals := make([]uint64, m.nvals)
	locals := make([]uint64, m.nlocals)
	blk := 0
	steps := 0
	for {
		var next = -1
		for _, op := range m.blocks[blk] {
			steps++
			if steps > 100000 {
				t.Fatal("mock executor runaway")
			}
			switch op.kind {
			case mConst:
				vals[op.res] = ssa.Canonicalize(op.imm, op.ty)
			case mBankReadFixed:
				vals[op.res] = st.ReadBank(op.bank, op.idx)
			case mBankWriteFixed:
				st.WriteBank(op.bank, op.idx, vals[op.a])
			case mBankRead:
				vals[op.res] = st.ReadBank(op.bank, vals[op.a])
			case mBankWrite:
				st.WriteBank(op.bank, vals[op.a], vals[op.b])
			case mBinary:
				vals[op.res] = ssa.EvalBinary(op.binOp, op.ty, vals[op.a], vals[op.b])
			case mUnary:
				vals[op.res] = ssa.EvalUnary(op.unOp, op.ty, vals[op.a])
			case mCast:
				vals[op.res] = ssa.EvalCast(vals[op.a], op.from, op.ty)
			case mSelect:
				if vals[op.a] != 0 {
					vals[op.res] = vals[op.b]
				} else {
					vals[op.res] = vals[op.c]
				}
			case mMemRead:
				v, _ := st.MemRead(op.width, vals[op.a])
				vals[op.res] = ssa.Canonicalize(v, op.ty)
			case mMemWrite:
				st.MemWrite(op.width, vals[op.a], vals[op.b])
			case mReadPC:
				vals[op.res] = st.ReadPC()
			case mWritePC:
				st.WritePC(vals[op.a])
			case mIncPC:
				st.WritePC(st.ReadPC() + op.imm)
			case mIntrinsic:
				args := make([]uint64, len(op.args))
				for i, a := range op.args {
					args[i] = vals[a]
				}
				v, _ := st.Intrinsic(op.intr.ID, args)
				vals[op.res] = v
			case mReadLocal:
				vals[op.res] = locals[op.local]
			case mWriteLocal:
				locals[op.local] = vals[op.a]
			case mJump:
				next = int(op.tb)
			case mBranch:
				if vals[op.a] != 0 {
					next = int(op.tb)
				} else {
					next = int(op.fb)
				}
			}
			if next >= 0 {
				break
			}
		}
		if next < 0 {
			return // fell off the end: instruction complete
		}
		blk = next
	}
}

// TestTranslateMatchesInterp is the generator-function correctness property:
// partial evaluation + emission must be observationally equivalent to direct
// SSA interpretation, for every instruction, at every optimization level.
func TestTranslateMatchesInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for _, level := range []ssa.OptLevel{ssa.O1, ssa.O2, ssa.O3, ssa.O4} {
		m := buildModule(t, level)
		interp := ssa.NewInterp()
		for _, info := range m.Instrs {
			for trial := 0; trial < 40; trial++ {
				// Build a random word that decodes to this instruction.
				word := rng.Uint64() & (1<<uint(m.InstBits) - 1)
				word = word&^info.Mask | info.Match
				d, ok := m.Decode(word)
				if !ok || d.Info != info {
					continue // predicate excluded it; try another
				}
				st1 := newMState()
				for i := range st1.banks["X"] {
					st1.banks["X"][i] = rng.Uint64() >> (rng.Intn(4) * 16)
				}
				st1.pc = rng.Uint64() &^ 3
				base := st1.banks["X"][d.Field("rn")%32]
				for a := uint64(0); a < 160; a++ {
					st1.mem[base+a] = byte(rng.Intn(256))
				}
				st2 := st1.clone()

				ok1, err := interp.Run(info.Action, d.AppendFields(nil), st1)
				if err != nil || !ok1 {
					t.Fatalf("%s O%d: interp failed: %v", info.Name, level, err)
				}

				em := newMockEmitter()
				if err := new(Translator).Translate(d, em); err != nil {
					t.Fatalf("%s O%d: translate: %v", info.Name, level, err)
				}
				em.run(t, st2)

				if !st1.equal(st2) {
					t.Fatalf("%s at O%d: translated code diverges from interpreter (trial %d, word %#x)\n%s",
						info.Name, level, trial, word, info.Action)
				}
			}
		}
	}
}

// TestTranslateFoldsFixedWork checks the split-compilation payoff: for the
// addi instruction with a fixed taken branch, no emitter branch is recorded
// — the control flow was resolved at translation time.
func TestTranslateFoldsFixedWork(t *testing.T) {
	m := buildModule(t, ssa.O4)
	var addi *InstrInfo
	for _, in := range m.Instrs {
		if in.Name == "addi" {
			addi = in
		}
	}
	d, ok := m.Decode(encodeI(2, 3, 1, 42))
	if !ok || d.Info != addi {
		t.Fatal("decode addi failed")
	}
	em := newMockEmitter()
	if err := new(Translator).Translate(d, em); err != nil {
		t.Fatal(err)
	}
	for _, blk := range em.blocks {
		for _, op := range blk {
			if op.kind == mBranch {
				t.Error("addi with imm!=0 emitted a dynamic branch; the field-dependent branch should be fixed")
			}
			if op.kind == mConst && op.imm == 42 {
				return // the immediate was folded into the emitted code
			}
		}
	}
	t.Error("folded immediate 42 not found in emitted code")
}

// TestTranslateDynamicBranch checks cmovz emits real control flow.
func TestTranslateDynamicBranch(t *testing.T) {
	m := buildModule(t, ssa.O4)
	d, ok := m.Decode(encodeR(4, 3, 1, 2, 0, 0))
	if !ok {
		t.Fatal("decode cmovz failed")
	}
	em := newMockEmitter()
	if err := new(Translator).Translate(d, em); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, blk := range em.blocks {
		for _, op := range blk {
			if op.kind == mBranch {
				found = true
			}
		}
	}
	if !found {
		t.Error("cmovz must emit a dynamic branch")
	}
}
