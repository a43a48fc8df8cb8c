package core

import (
	"captive/internal/vx64"
)

// Translated-code management (§2.6): the cache is indexed by guest
// *physical* address (plus exception level, since translations execute at
// the matching host ring), so translations survive guest page-table changes
// and are shared across different virtual mappings of the same physical
// page. Invalidation happens only when self-modifying code is detected via
// host write protection, or when the cache region fills.

// Block is one translated guest basic block.
type Block struct {
	GPA      uint64 // cache key: guest physical (Captive) or virtual (QEMU) address
	PhysPage uint64 // guest physical page of the source code (SMC tracking)
	EL       uint8
	Entry    uint64 // host-virtual (direct map) entry address
	PA       uint64 // host-physical code placement
	Len      int

	GuestInstrs int
	CodeBytes   int

	// DirectExit is true when every PC write in the block was PC+constant
	// (direct branches and fall-through). The QEMU baseline only chains
	// such blocks (goto_tb is direct-only in TCG); Captive's PC-compare
	// chains cover indirect exits too.
	DirectExit bool

	// Exit chaining state (§2.6 block chaining): each exit epilogue is a
	// TRAP-to-dispatcher that can be overwritten with a direct JMP once
	// the target is translated.
	Exits []Exit

	// Incoming chain patches into this block, undone on invalidation.
	incoming []patchRef

	Valid bool
}

// Exit is a chainable block exit: an epilogue slot that PC-compare chains
// are patched into (chain.go).
type Exit struct {
	EpiPA uint64 // physical address of the epilogue
	Slots []chainSlot
}

type patchRef struct {
	from *Block
	exit int
}

type cacheKey struct {
	gpa uint64
	el  uint8
}

type codeCache struct {
	phys vx64.PhysMem
	// cpus are every host CPU executing out of this cache (one per vCPU):
	// code invalidations are shootdowns, clearing each CPU's decode caches
	// and superblock generation counters.
	cpus    []*vx64.CPU
	base    uint64 // physical base of the cache region
	size    uint64
	next    uint64 // bump allocator offset
	blocks  map[cacheKey]*Block
	byPage  map[uint64][]*Block // guest physical page -> blocks
	Flushes uint64
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

// lookup finds a valid translation.
func (c *codeCache) lookup(gpa uint64, el uint8) *Block {
	b := c.blocks[cacheKey{gpa, el}]
	if b != nil && b.Valid {
		return b
	}
	return nil
}

// insert registers a block and its page index entries.
func (c *codeCache) insert(b *Block) {
	c.blocks[cacheKey{b.GPA, b.EL}] = b
	c.byPage[b.PhysPage] = append(c.byPage[b.PhysPage], b)
	// A block may span into the next page only if translation stopped at
	// the boundary, which the translator guarantees; one page entry
	// suffices.
}

// pageHasCode reports whether any valid translation came from the guest
// physical page.
func (c *codeCache) pageHasCode(gpaPage uint64) bool {
	for _, b := range c.byPage[gpaPage] {
		if b.Valid {
			return true
		}
	}
	return false
}

// invalidatePage drops every translation from a guest physical page,
// unpatching incoming chains (§2.6 self-modifying-code handling).
func (c *codeCache) invalidatePage(gpaPage uint64) int {
	blocks := c.byPage[gpaPage]
	n := 0
	for _, b := range blocks {
		if !b.Valid {
			continue
		}
		b.Valid = false
		delete(c.blocks, cacheKey{b.GPA, b.EL})
		for _, in := range b.incoming {
			c.unchain(in.from, in.exit)
		}
		b.incoming = nil
		n++
	}
	delete(c.byPage, gpaPage)
	return n
}

// flushAll drops everything and resets the allocator.
func (c *codeCache) flushAll() {
	c.blocks = make(map[cacheKey]*Block)
	c.byPage = make(map[uint64][]*Block)
	c.next = 0
	c.Flushes++
	c.invalidateCode(c.base, c.size)
}
