package core_test

import (
	"testing"

	"captive/internal/core"
	"captive/internal/guest/ga64"
	"captive/internal/guest/ga64/asm"
	"captive/internal/hvm"
)

// TestExitAt installs blocks cut from random code and resolves trap
// addresses against them: a dispatch TRAP can sit only at a block's
// epilogue or after one or two chain slots, so exactly those addresses
// name the block, and nothing is found once the cache is flushed.
func TestExitAt(t *testing.T) {
	const blocks, slotSize = 40, core.ChainSlotSize
	for _, kind := range []struct {
		name string
		qemu bool
	}{{"captive", false}, {"qemu", true}} {
		t.Run(kind.name, func(t *testing.T) {
			m := ga64.MustModule()
			e := newEngine(t, ga64.Port{}, m, kind.qemu)
			if err := e.LoadImage(randomCode(m, 29, blocks), jitBase, jitBase); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < blocks; i++ {
				if _, err := e.TranslateAt(jitBase + 4*uint64(i)); err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
			}
			installed := e.Installed()
			if len(installed) != blocks {
				t.Fatalf("%d blocks installed, want %d", len(installed), blocks)
			}
			var misses []uint64
			for i, b := range installed {
				start, epi := b.Entry-hvm.DirectBase, b.EpiloguePA()
				if start >= epi {
					t.Fatalf("block %d: epilogue at %#x does not follow its entry %#x", i, epi, start)
				}
				for k := uint64(0); k <= core.MaxChainSlots; k++ {
					if got := e.ExitAt(epi + k*slotSize); got != b {
						t.Errorf("block %d: trap after %d slots (%#x) resolves to %p, want %p", i, k, epi+k*slotSize, got, b)
					}
				}
				// The block's body, and between and past the TRAP positions.
				misses = append(misses, start, epi-1, epi+1, epi+slotSize/2, epi+slotSize+1,
					epi+core.MaxChainSlots*slotSize-1, epi+(core.MaxChainSlots+1)*slotSize)
			}
			first, last := installed[0], installed[len(installed)-1]
			misses = append(misses, 0, first.Entry-hvm.DirectBase-1, last.EpiloguePA()+(1<<20))
			for _, pa := range misses {
				if got := e.ExitAt(pa); got != nil {
					t.Errorf("%#x resolves to the block at %#x, want none", pa, got.GPA)
				}
			}
			e.FlushTranslations()
			for _, b := range installed {
				for k := uint64(0); k <= core.MaxChainSlots; k++ {
					if pa := b.EpiloguePA() + k*slotSize; e.ExitAt(pa) != nil {
						t.Fatalf("%#x resolves to a block after a flush", pa)
					}
				}
			}
		})
	}
}

// TestChainRecordsBounded runs a chained loop that writes TTBR0 on every
// iteration. Each write unchains every block and the loop re-chains its
// exits, so the chain records must stay sized by the slots installed now,
// not grow by one entry per re-chain.
func TestChainRecordsBounded(t *testing.T) {
	const iterations = 1000
	e := newGA64Engine(t, false)
	p := asm.New(0x1000)
	p.MovI(0, 0)
	p.MovI(1, iterations)
	p.Label("loop")
	p.Msr(ga64.SysTTBR0, 0)
	p.SubI(1, 1, 1)
	p.Cbnz(1, "loop")
	p.Hlt(0)
	runCaptive(t, e, p)
	m := e.Metrics()
	if m.TransFlushes != iterations || m.BlockChains < iterations {
		t.Fatalf("%d translation changes and %d chains, want %d and at least as many chains",
			m.TransFlushes, m.BlockChains, iterations)
	}
	incoming, slots := e.ChainRecords()
	t.Logf("%d incoming-chain entries, %d chain slots installed", incoming, slots)
	if slots == 0 || incoming > slots {
		t.Errorf("%d incoming-chain entries for %d installed chain slots", incoming, slots)
	}
}
