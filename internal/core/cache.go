package core

import (
	"slices"

	"captive/internal/vx64"
)

// Translated-code management (§2.6): the cache is indexed by guest
// *physical* address (plus exception level, since translations execute at
// the matching host ring), so translations survive guest page-table changes
// and are shared across different virtual mappings of the same physical
// page. Invalidation happens only when self-modifying code is detected via
// host write protection, or when the cache region fills. The cache holds
// every record of translated code, and a flush clears them all. The block
// and page indexes hold valid blocks only; the exit and chain indexes may
// also name blocks invalidated since the last flush, which is why chaining
// checks Block.Valid.

// Block is one translated guest basic block.
type Block struct {
	GPA      uint64 // cache key: guest physical (Captive) or virtual (QEMU) address
	PhysPage uint64 // guest physical page of the source code (SMC tracking)
	EL       uint8
	Entry    uint64 // host-virtual (direct map) entry address

	// DirectExit is true when every PC write in the block was PC+constant
	// (direct branches and fall-through). The QEMU baseline only chains
	// such blocks (goto_tb is direct-only in TCG); Captive's PC-compare
	// chains cover indirect exits too.
	DirectExit bool

	// Exit chaining state (§2.6 block chaining): the block's one exit is a
	// TRAP-to-dispatcher epilogue at host-physical epiPA, into which
	// PC-compare chain slots for the guest PCs in slots are patched once
	// their targets are translated (chain.go).
	epiPA uint64
	slots []uint64

	// incoming lists the blocks chained into this one, one entry per
	// slot; their chains are undone when this block is invalidated.
	incoming []*Block

	Valid bool
}

type cacheKey struct {
	gpa uint64
	el  uint8
}

type codeCache struct {
	phys vx64.PhysMem
	// cpus are every host CPU executing out of this cache (one per vCPU):
	// code invalidations are shootdowns, bumping each CPU's superblock
	// generations.
	cpus   []*vx64.CPU
	base   uint64 // physical base of the cache region
	size   uint64
	next   uint64 // bump allocator offset
	blocks map[cacheKey]*Block
	// byPage maps a guest physical page to its blocks. It is the one record
	// of which pages hold translated code: Captive's write protection and
	// the baseline's dirty tracking both read it (pageHasCode).
	byPage map[uint64][]*Block

	// Exit resolution: exitByPA maps each code-region offset at which a
	// block's dispatch TRAP can sit to 1+index into exitArena, which holds
	// one entry per block (0: no TRAP there). Its length is the high-water
	// mark of the offsets written since the last flush, which clears every
	// written entry (listed in exitOffs) and truncates it, so entries past
	// the length are zero.
	exitByPA  []int32
	exitArena []*Block
	exitOffs  []uint64
	// chained holds the source block of every installed chain slot, one
	// entry per slot, for translationChanged to undo.
	chained []*Block
}

func newCodeCache(phys vx64.PhysMem, cpus []*vx64.CPU, base, size uint64) *codeCache {
	return &codeCache{
		phys: phys, cpus: cpus, base: base, size: size,
		blocks: make(map[cacheKey]*Block),
		byPage: make(map[uint64][]*Block),
	}
}

// invalidateCode broadcasts a code-region invalidation to every host CPU.
func (c *codeCache) invalidateCode(pa, size uint64) {
	for _, cpu := range c.cpus {
		cpu.InvalidateCode(pa, size)
	}
}

// alloc reserves n bytes of code space; ok=false means the cache must be
// flushed.
func (c *codeCache) alloc(n int) (uint64, bool) {
	if c.next+uint64(n) > c.size {
		return 0, false
	}
	pa := c.base + c.next
	c.next += uint64(n)
	return pa, true
}

// lookup finds a translation.
func (c *codeCache) lookup(gpa uint64, el uint8) *Block {
	return c.blocks[cacheKey{gpa, el}]
}

// insert registers a block in the key, page and exit indexes.
func (c *codeCache) insert(b *Block) {
	c.blocks[cacheKey{b.GPA, b.EL}] = b
	// A block may span into the next page only if translation stopped at
	// the boundary, which the translator guarantees; one page entry
	// suffices.
	c.byPage[b.PhysPage] = append(c.byPage[b.PhysPage], b)
	c.exitArena = append(c.exitArena, b)
	// The dispatch TRAP sits after 0, 1 or 2 installed chain slots.
	for i := uint64(0); i <= maxChainSlots; i++ {
		off := b.epiPA + i*chainSlotSize - c.base
		if off >= uint64(len(c.exitByPA)) {
			// Entries past the length are zero (see exitByPA).
			c.exitByPA = slices.Grow(c.exitByPA, int(off)+1-len(c.exitByPA))[:off+1]
		}
		c.exitByPA[off] = int32(len(c.exitArena))
		c.exitOffs = append(c.exitOffs, off)
	}
}

// exitAt returns the block whose dispatch TRAP sits at host-physical pa, or
// nil.
func (c *codeCache) exitAt(pa uint64) *Block {
	if off := pa - c.base; off < uint64(len(c.exitByPA)) {
		if id := c.exitByPA[off]; id != 0 {
			return c.exitArena[id-1]
		}
	}
	return nil
}

// pageHasCode reports whether any translation came from the guest
// physical page.
func (c *codeCache) pageHasCode(gpaPage uint64) bool {
	return len(c.byPage[gpaPage]) > 0
}

// invalidatePage drops every translation from a guest physical page,
// unpatching incoming chains (§2.6 self-modifying-code handling).
func (c *codeCache) invalidatePage(gpaPage uint64) {
	for _, b := range c.byPage[gpaPage] {
		b.Valid = false
		delete(c.blocks, cacheKey{b.GPA, b.EL})
		for _, from := range b.incoming {
			c.unchain(from)
		}
		b.incoming = nil
	}
	delete(c.byPage, gpaPage)
}

// flush drops every translation and index entry and resets the allocator.
// The whole region is invalidated, but each CPU bumps only the pages its
// superblocks covered since its last flush (vx64.CPU.InvalidateCode).
func (c *codeCache) flush() {
	c.blocks = make(map[cacheKey]*Block)
	c.byPage = make(map[uint64][]*Block)
	for _, off := range c.exitOffs {
		c.exitByPA[off] = 0
	}
	c.exitByPA = c.exitByPA[:0]
	c.exitOffs = c.exitOffs[:0]
	// Cleared before truncation so the flushed blocks can be collected.
	clear(c.exitArena)
	c.exitArena = c.exitArena[:0]
	clear(c.chained)
	c.chained = c.chained[:0]
	c.next = 0
	c.invalidateCode(c.base, c.size)
}
