package core_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"captive/internal/core"
	"captive/internal/gen"
	"captive/internal/guest/ga64"
	"captive/internal/guest/port"
	"captive/internal/guest/rv64"
	"captive/internal/hvm"
	"captive/internal/ssa"
	"captive/internal/vx64"
)

// The JIT keeps its scratch (emitter, partial evaluator, register allocator,
// encoder) on the engine and resets it per block. These tests hold that a
// block's code does not depend on what the engine translated before, and
// that a warm engine's translation stays allocation-light.

// jitBase is where the random code is loaded and its blocks start.
const jitBase = 0x1000

// randomCode returns n random instruction words m decodes, as a
// little-endian image: blocks cut from it at every word mix all of the
// guest's instructions with random fields.
func randomCode(m *gen.Module, seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	img := make([]byte, 0, 4*n)
	for len(img) < 4*n {
		w := rng.Uint32()
		if _, ok := m.Decode(uint64(w)); ok {
			img = binary.LittleEndian.AppendUint32(img, w)
		}
	}
	return img
}

// withoutProfileSlots returns a copy of code with each PROFCNT's profile
// slot zeroed. Slots are handed out in translation order; they are the one
// field of a block's code that depends on history.
func withoutProfileSlots(t *testing.T, code []byte) []byte {
	t.Helper()
	out := slices.Clone(code)
	for off := 0; off < len(out); {
		inst, n, err := vx64.Decode(out, off)
		if err != nil {
			t.Fatalf("decoding translated code at +%#x: %v", off, err)
		}
		if inst.Op == vx64.PROFCNT {
			clear(out[off+1 : off+n])
		}
		off += n
	}
	return out
}

// TestTranslationHistoryIndependent translates one set of blocks in three
// orders: in address order on a fresh engine, in reverse on a second fresh
// engine, and shuffled on that engine after a flush. Every block's code
// must come out identical each time, so no stale scratch (a pooled emitter
// block, a pending list, an interval, a partial-evaluation value or
// variable) leaks from one translation into the next. O1 keeps the DSL
// variables that O4 promotes away, so both levels run.
func TestTranslationHistoryIndependent(t *testing.T) {
	const words = 1000
	for _, g := range []struct {
		name   string
		port   port.Port
		module func(ssa.OptLevel) (*gen.Module, error)
	}{
		{"ga64", ga64.Port{}, ga64.NewModule},
		{"rv64", rv64.Port{}, rv64.NewModule},
	} {
		for _, level := range []ssa.OptLevel{ssa.O1, ssa.O4} {
			for _, kind := range []struct {
				name string
				qemu bool
			}{{"captive", false}, {"qemu", true}} {
				t.Run(fmt.Sprintf("%s/O%d/%s", g.name, level, kind.name), func(t *testing.T) {
					m, err := g.module(level)
					if err != nil {
						t.Fatal(err)
					}
					img := randomCode(m, 19, words)
					engine := func() *core.Engine {
						e := newEngine(t, g.port, m, kind.qemu)
						if err := e.LoadImage(img, jitBase, jitBase); err != nil {
							t.Fatal(err)
						}
						return e
					}
					translate := func(e *core.Engine, i int) []byte {
						code, err := e.TranslateAt(jitBase + 4*uint64(i))
						if err != nil {
							t.Fatalf("block %d: %v", i, err)
						}
						return withoutProfileSlots(t, code)
					}

					want := make([][]byte, words)
					first := engine()
					for i := range want {
						want[i] = translate(first, i)
					}
					check := func(order string, e *core.Engine, i int) {
						if got := translate(e, i); !slices.Equal(got, want[i]) {
							t.Fatalf("%s: block %d at %#x: %d bytes differ from the first translation's %d",
								order, i, jitBase+4*i, len(got), len(want[i]))
						}
					}
					second := engine()
					for i := words - 1; i >= 0; i-- {
						check("reverse order", second, i)
					}
					second.FlushTranslations()
					for _, i := range rand.New(rand.NewSource(7)).Perm(words) {
						check("shuffled after a flush", second, i)
					}
				})
			}
		}
	}
}

// maxAllocsPerBlock bounds the heap allocations of one translation on a
// warm engine. What remains is the Block record, the sort.Slice that orders
// a dynamic region's blocks, and the amortized growth of the code cache's
// indexes and the profile arena; the rest of the pipeline reuses its
// scratch.
const maxAllocsPerBlock = 4

// TestTranslateAllocBound translates 1,200 distinct blocks on an engine
// that already translated 1,200 others, and holds the average allocations
// per block to maxAllocsPerBlock, on Captive and the QEMU baseline.
func TestTranslateAllocBound(t *testing.T) {
	const perRun = 1200
	for _, kind := range []struct {
		name string
		qemu bool
	}{{"captive", false}, {"qemu", true}} {
		t.Run(kind.name, func(t *testing.T) {
			m := ga64.MustModule()
			e := newEngine(t, ga64.Port{}, m, kind.qemu)
			// AllocsPerRun's warm-up call takes the first perRun blocks,
			// the measured call the next perRun.
			if err := e.LoadImage(randomCode(m, 23, 2*perRun), jitBase, jitBase); err != nil {
				t.Fatal(err)
			}
			next := 0
			perBlock := testing.AllocsPerRun(1, func() {
				for i := 0; i < perRun; i++ {
					if _, err := e.TranslateAt(jitBase + 4*uint64(next)); err != nil {
						t.Fatal(err)
					}
					next++
				}
			}) / perRun
			t.Logf("%.2f allocations per block", perBlock)
			if perBlock > maxAllocsPerBlock {
				t.Errorf("translation allocates %.2f times per block, want at most %d", perBlock, maxAllocsPerBlock)
			}
		})
	}
}

// TestEpilogueBytes translates 300 blocks of random GA64 code on each
// engine. Every block must end in the unchained exit epilogue, at the
// address its Block records. The pipeline appends those bytes instead of
// allocating and encoding them as LIR, but the JIT charge, the LIR count and
// the code stay what they were when it did: the pinned figures are those of
// the LIR pipeline for the same batch.
func TestEpilogueBytes(t *testing.T) {
	for _, kind := range []struct {
		name         string
		qemu         bool
		lir          int
		cycles, hash uint64
	}{
		{"captive", false, 52262, 5549580, 0x5395f9a0},
		{"qemu", true, 62432, 2494120, 0xd1203ac0},
	} {
		t.Run(kind.name, func(t *testing.T) {
			const blocks = 300
			m := ga64.MustModule()
			e := newEngine(t, ga64.Port{}, m, kind.qemu)
			if err := e.LoadImage(randomCode(m, 29, blocks), jitBase, jitBase); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < blocks; i++ {
				code, err := e.TranslateAt(jitBase + 4*uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				installed := e.Installed()
				b := installed[len(installed)-1]
				epi := code[b.EpiloguePA()-(b.Entry-hvm.DirectBase):]
				if !slices.Equal(epi, core.UnchainedEpilogue) {
					t.Fatalf("block %d: code from its epilogue address is % x, want the unchained epilogue % x",
						i, epi, core.UnchainedEpilogue)
				}
			}
			s := e.Metrics()
			if s.JITLIRInsts != kind.lir || s.SimDeciCycles != kind.cycles || s.JITCodeHash != kind.hash {
				t.Errorf("LIR %d, cycles %d, code hash %#x; want %d, %d, %#x",
					s.JITLIRInsts, s.SimDeciCycles, s.JITCodeHash, kind.lir, kind.cycles, kind.hash)
			}
		})
	}
}
