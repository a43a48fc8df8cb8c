package difftest

import (
	"testing"

	"captive/internal/guest/ga64"
	"captive/internal/guest/port"
	"captive/internal/machine"
	"captive/internal/ssa"
)

// TestSMCInvalsAsserted pins the lane's engine-stat contract directly: a
// seed from the corpus must retire at least one SMC invalidation on the
// Captive engine and on the QEMU baseline (the lane's Check would reject it
// otherwise, but assert the counters here so a silent harness regression
// cannot slip by).
func TestSMCInvalsAsserted(t *testing.T) {
	p, err := GenerateSMC(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []EngineID{
		{Kind: machine.Captive, Level: ssa.O4},
		{Kind: machine.QEMU, Level: ssa.O4},
	} {
		o, err := SMC.Run(p, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if o.Metrics.SMCInvals == 0 {
			t.Errorf("%s: no SMC invalidations fired", id)
		}
	}
}

// TestSharedBlockFormation pins the shared block-formation rules the whole
// differential story rests on: the harness compares instruction counts
// produced by the DBT engines' translated-block instrumentation against the
// golden interpreter, and both sides form blocks with port.ScanBlock — the
// cap, the page-boundary cut and the block-ending stop must hold there, in
// one place, for every guest module.
func TestSharedBlockFormation(t *testing.T) {
	module := ga64.MustModule()
	nop := ga64.EncS(ga64.OpNop, 0, 0, 0)
	ret := ga64.EncR(ga64.OpRet, 0, 30, 0, 0, 0)
	mem := make([]byte, 3<<12)
	read := func(pa uint64) (uint32, bool) {
		if pa+4 > uint64(len(mem)) {
			return 0, false
		}
		return uint32(mem[pa]) | uint32(mem[pa+1])<<8 | uint32(mem[pa+2])<<16 | uint32(mem[pa+3])<<24, true
	}
	put := func(pa uint64, w uint32) {
		mem[pa], mem[pa+1], mem[pa+2], mem[pa+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	for pa := uint64(0); pa < uint64(len(mem)); pa += 4 {
		put(pa, nop)
	}

	// A NOP sled is cut at the shared cap.
	block, undef := port.ScanBlock(module, read, 0x1000, nil)
	if undef || len(block) != port.MaxBlockInstrs {
		t.Fatalf("nop sled: len=%d undef=%v, want %d", len(block), undef, port.MaxBlockInstrs)
	}
	// A block never crosses the guest physical page it started on.
	block, undef = port.ScanBlock(module, read, 0x2000-8, block[:0])
	if undef || len(block) != 2 {
		t.Fatalf("page cut: len=%d undef=%v, want 2", len(block), undef)
	}
	// A block-ending behaviour is always the last instruction.
	put(0x1010, ret)
	block, undef = port.ScanBlock(module, read, 0x1000, block[:0])
	if undef || len(block) != 5 || !block[4].Info.Action.EndsBlock {
		t.Fatalf("ends-block stop: len=%d undef=%v", len(block), undef)
	}
	// An undecodable word cuts the block before it; at a block start it
	// voids the block (the engines' hUndef path).
	put(0x1008, 0xFF000000)
	block, undef = port.ScanBlock(module, read, 0x1000, block[:0])
	if undef || len(block) != 2 {
		t.Fatalf("undecodable cut: len=%d undef=%v, want 2", len(block), undef)
	}
	if block, undef = port.ScanBlock(module, read, 0x1008, block[:0]); !undef || len(block) != 0 {
		t.Fatalf("undef at start: len=%d undef=%v", len(block), undef)
	}
	// Reads beyond RAM behave like undecodable words.
	if block, undef = port.ScanBlock(module, read, uint64(len(mem)), block[:0]); !undef || len(block) != 0 {
		t.Fatalf("out-of-RAM fetch: len=%d undef=%v", len(block), undef)
	}
}
