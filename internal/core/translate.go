package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"captive/internal/gen"
	"captive/internal/guest/port"
	"captive/internal/hvm"
	"captive/internal/trace"
	"captive/internal/vx64"
)

// translateBlock runs the four-phase online pipeline of Fig. 8 for one
// guest basic block: Decode → Translate (generator functions over the
// invocation DAG) → Register Allocation → Encode, then installs the code in
// the cache and write-protects the source page for SMC detection.
func (e *Engine) translateBlock(pc, gpa uint64, el uint8) (*Block, error) {
	// --- decode (§2.3.1): the shared block-formation rules ---
	t0 := time.Now()
	decs, undef := port.ScanBlock(e.module, e.vm.RAM.Fetch, gpa, e.scanBuf[:0])
	e.scanBuf = decs
	e.stats.DecodeNS += time.Since(t0).Nanoseconds()

	// --- translate (§2.3.2) ---
	t1 := time.Now()
	em := &e.em
	em.reset()
	// Instrumentation prologue: retire-count the block's guest instructions.
	n := len(decs)
	if n > 0 {
		ic := em.newG()
		em.emit(vx64.Inst{Op: vx64.LOAD64, Rd: ic,
			M: vx64.Mem{Base: vx64.RSTA, Index: vx64.NoReg, Scale: 1, Disp: hvm.StateICount}})
		// Block-entry interrupt check: trap to the dispatcher when the
		// retired-instruction count has reached the injection deadline the
		// engine keeps in StateIRQDl. The comparison uses the count *before*
		// this block retires anything, so chained and superblocked entries
		// observe exactly the boundary the dispatcher (and the interpreter)
		// would have checked.
		em.emit(vx64.Inst{Op: vx64.IRQCHK, Rs: ic,
			M: vx64.Mem{Base: vx64.RSTA, Index: vx64.NoReg, Scale: 1, Disp: hvm.StateIRQDl}})
		// Hot-block profile marker. After the interrupt check (an entry the
		// IRQCHK aborts retired nothing and must count nothing) and before
		// the retire-count update (so the trace hook observes the same
		// virtual time the interpreter stamps its block entries with).
		em.emit(vx64.Inst{Op: vx64.PROFCNT, Imm: int64(len(e.sh.profPC))})
		e.sh.profPC = append(e.sh.profPC, pc)
		// Every hart can execute the shared block, so every hart's profile
		// arena gains the slot (each counts its own entries).
		for _, eng := range e.sh.engines {
			eng.cpu.Prof = append(eng.cpu.Prof, vx64.ProfCell{})
		}
		em.emit(vx64.Inst{Op: vx64.ADDri, Rd: ic, Imm: int64(n)})
		em.emit(vx64.Inst{Op: vx64.STORE64, Rs: ic,
			M: vx64.Mem{Base: vx64.RSTA, Index: vx64.NoReg, Scale: 1, Disp: hvm.StateICount}})
	}
	if undef || n == 0 {
		// Undefined encoding (or unreadable memory) right at the block
		// start: raise the guest undefined-instruction exception.
		em.emit(vx64.Inst{Op: vx64.HELPER, Imm: int64(hUndef)})
	} else {
		for _, d := range decs {
			if err := e.tr.Translate(d, em); err != nil {
				return nil, fmt.Errorf("core: translating %s at %#x: %w", d.Info.Name, pc, err)
			}
			if !d.Info.Action.WritesPC {
				em.IncPC(4)
			}
		}
	}

	// Exit epilogue: a chainable TRAP-to-dispatcher region (chain.go). Its
	// emitter block stays empty and last in layout, so its label marks
	// where encode leaves off; the constant bytes are appended there.
	epi := em.coldBlock()
	em.emitBr(vx64.Inst{Op: vx64.JMP}, epi.id)
	lir := em.Finalize()
	e.stats.TranslateNS += time.Since(t1).Nanoseconds()
	e.stats.JITDAGNodes += len(em.nodes)

	// --- register allocation (§2.3.3) ---
	t2 := time.Now()
	alloc, astats, err := e.ra.allocate(lir)
	if err != nil {
		return nil, fmt.Errorf("core: block at %#x: %w", pc, err)
	}
	e.stats.RegallocNS += time.Since(t2).Nanoseconds()
	e.stats.JITDeadInsts += astats.Dead
	e.stats.JITSpills += astats.Spilled

	// --- encode (§2.3.4) ---
	t3 := time.Now()
	code, err := e.enc.encode(alloc, len(em.blocks))
	if err != nil {
		return nil, fmt.Errorf("core: block at %#x: %w", pc, err)
	}
	code = append(code, unchainedEpilogue[:]...)
	e.enc.code = code
	pa, ok := e.cache.alloc(len(code))
	if !ok {
		if e.sh.parallel {
			// A flush would reuse code space a parked sibling still has a
			// saved RIP into; parallel runs size the cache to the workload.
			return nil, fmt.Errorf("core: code cache full under parallel execution")
		}
		e.flushTranslations()
		pa, ok = e.cache.alloc(len(code))
		if !ok {
			return nil, fmt.Errorf("core: block of %d bytes exceeds code cache", len(code))
		}
	}
	copy(e.vm.Phys[pa:], code)
	e.stats.JITCodeHash = uint64(crc32.Update(uint32(e.stats.JITCodeHash), castagnoli, code))
	e.cache.invalidateCode(pa, uint64(len(code)))
	e.stats.EncodeNS += time.Since(t3).Nanoseconds()

	key := gpa
	if e.Kind == BackendQEMU {
		key = pc
	}
	gpaPage := gpa >> 12
	blk := &Block{
		GPA: key, EL: el, PhysPage: gpaPage,
		Entry: hvm.DirectVA(pa), epiPA: pa + uint64(e.enc.labels[epi.id]),
		DirectExit: em.pcWriteConstOnly,
		Valid:      true,
	}
	hadCode := e.cache.pageHasCode(gpaPage)
	e.cache.insert(blk)

	// SMC protection: the first block from a page makes Captive
	// write-protect it through the host MMU (§2.6) — on *every* hart, since
	// any of them could write the page; the baseline evicts each hart's
	// softmmu write entry for the page and relies on slow-path dirty
	// tracking.
	if e.Kind == BackendQEMU {
		idx := int(pc >> 12 & (softTLBSize - 1))
		for _, eng := range e.sh.engines {
			e.vm.Phys.W64(eng.softTLBEntryPA(idx)+softTLBTagW, ^uint64(0))
		}
	} else if !hadCode {
		for _, eng := range e.sh.engines {
			eng.mmu.protectPage(gpaPage)
		}
	}

	// Charge the translation work to the simulated clock and update stats.
	// The IRQCHK and PROFCNT in the instrumentation prologue are excluded
	// from the charge: they are part of the engine's injection and
	// observability machinery, not of the translated guest code, and
	// charging them would shift the calibrated cycle model of every
	// pre-observability program.
	charged := uint64(len(alloc) + epilogueLIR)
	if n > 0 {
		charged -= 2
	}
	if e.Kind == BackendQEMU {
		e.cpu.Stats.Cycles += costQJITBase + costQJITPerLIR*charged
	} else {
		e.cpu.Stats.Cycles += costJITBase + costJITPerLIR*charged
	}
	e.stats.JITBlocks++
	e.stats.JITGuestInstrs += n
	e.stats.JITLIRInsts += len(alloc) + epilogueLIR
	e.stats.JITCodeBytes += len(code)
	e.Record(trace.Translate, uint8(el), pc, uint64(len(code)))
	return blk, nil
}

// castagnoli is the CRC-32C table behind Snapshot.JITCodeHash (hardware-
// accelerated on amd64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// flushTranslations empties the code cache and forgets every hart's last
// exit, which pointed into it.
func (e *Engine) flushTranslations() {
	e.cache.flush()
	e.stats.CacheFlushes++
	for _, eng := range e.sh.engines {
		eng.lastExit = nil
	}
}

// encoder is one engine's encode scratch, reset (not reallocated) per
// block.
type encoder struct {
	code    []byte
	labels  []int // code offset per emitter block (gen.BlockRef); -1 until its label is encoded
	patches []patch
}

// patch is a branch whose rel32, its last four bytes, awaits its target
// block's offset.
type patch struct {
	end    int // byte position the displacement is relative to: the branch's end
	target gen.BlockRef
}

// encode encodes allocated LIR over blocks emitter blocks into machine
// code, resolving emitter-block branch targets via the label
// pseudo-instructions (the final patch pass of §2.3.4). The code and labels
// are valid until the next call.
func (c *encoder) encode(lir []LInst, blocks int) ([]byte, error) {
	buf := c.code[:0]
	c.labels = slices.Grow(c.labels[:0], blocks)[:blocks]
	for i := range c.labels {
		c.labels[i] = -1
	}
	c.patches = c.patches[:0]
	for i := range lir {
		li := &lir[i]
		if li.Label {
			c.labels[li.Target] = len(buf)
			continue
		}
		if li.I.Dead {
			continue
		}
		buf = vx64.Encode(buf, &li.I)
		if li.Target != noTarget {
			if !li.I.Op.Info().Form.Rel32() {
				return nil, fmt.Errorf("core: target on non-branch %v", li.I.Op)
			}
			c.patches = append(c.patches, patch{end: len(buf), target: li.Target})
		}
	}
	c.code = buf
	for _, p := range c.patches {
		off := -1
		if int(p.target) < len(c.labels) {
			off = c.labels[p.target]
		}
		if off < 0 {
			return nil, fmt.Errorf("core: unresolved branch target b%d", p.target)
		}
		rel := int64(off) - int64(p.end)
		if rel < -(1<<31) || rel >= 1<<31 {
			return nil, fmt.Errorf("core: branch displacement overflow")
		}
		binary.LittleEndian.PutUint32(buf[p.end-4:], uint32(int32(rel)))
	}
	return buf, nil
}
