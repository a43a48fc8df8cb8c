package core

import (
	"cmp"
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
// and page indexes hold valid blocks only; the install-ordered block list
// and the chain links may also name blocks invalidated since the last
// flush, which is why chaining checks Block.Valid.

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
	// slot; their chains are undone when this block is invalidated. A
	// translation change undoes every chain and empties every list.
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

	// installed lists every block installed since the last flush in
	// install order, which is address order: alloc is a bump allocator.
	// exitAt searches it.
	installed []*Block
	// chained holds every installed chain slot, one entry per slot, for
	// translationChanged to undo.
	chained []chainLink
}

// chainLink is one installed chain slot: from's exit jumps to to.
type chainLink struct{ from, to *Block }

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

// insert registers a block in the key and page indexes and the install
// list.
func (c *codeCache) insert(b *Block) {
	c.blocks[cacheKey{b.GPA, b.EL}] = b
	// A block may span into the next page only if translation stopped at
	// the boundary, which the translator guarantees; one page entry
	// suffices.
	c.byPage[b.PhysPage] = append(c.byPage[b.PhysPage], b)
	c.installed = append(c.installed, b)
}

// exitAt returns the block whose dispatch TRAP sits at host-physical pa, or
// nil. The TRAP sits after 0, 1 or 2 installed chain slots, inside the
// block's own epilogue, so only the last block whose epilogue starts at or
// below pa can own it.
func (c *codeCache) exitAt(pa uint64) *Block {
	i, found := slices.BinarySearchFunc(c.installed, pa, func(b *Block, pa uint64) int {
		return cmp.Compare(b.epiPA, pa)
	})
	if !found {
		if i == 0 {
			return nil
		}
		i--
	}
	b := c.installed[i]
	if d := pa - b.epiPA; d%chainSlotSize != 0 || d > maxChainSlots*chainSlotSize {
		return nil
	}
	return b
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
	// Cleared before truncation so the flushed blocks can be collected.
	clear(c.installed)
	c.installed = c.installed[:0]
	clear(c.chained)
	c.chained = c.chained[:0]
	c.next = 0
	c.invalidateCode(c.base, c.size)
}
