package vx64

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"captive/internal/softfloat"
)

// Page-table constants. VX64 paging is a 4-level radix tree over 48-bit
// virtual addresses with 4 KiB pages, like x86-64. CR3 bits [51:12] hold the
// physical address of the root table; bits [11:0] hold the PCID; bit 63 of a
// value *written* to CR3 requests a no-flush (PCID-preserving) switch.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1

	PTEPresent  = 1 << 0
	PTEWrite    = 1 << 1
	PTEUser     = 1 << 2
	PTELarge    = 1 << 7 // 2 MiB page when set at the PD level
	PTEAddrMask = 0x000FFFFFFFFFF000

	CR3NoFlush = 1 << 63
	pcidMask   = 0xFFF

	tlbSize = 512
)

// Access distinguishes the kind of memory access for fault reporting.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return "exec"
	}
}

// TrapKind classifies why the CPU stopped and returned to its embedder.
type TrapKind uint8

// Trap kinds.
const (
	TrapNone      TrapKind = iota
	TrapPageFault          // unresolved translation; RIP points at the faulting instruction
	TrapBusError           // physical address out of range
	TrapInvalidOp
	TrapDivide
	TrapGP      // privilege violation
	TrapSoft    // TRAP imm executed; RIP already advanced
	TrapSyscall // SYSCALL executed; RIP already advanced
	TrapHlt
	TrapBudget     // cycle budget exhausted
	TrapHelperExit // a helper requested return to the embedder
	TrapIRQ        // IRQCHK deadline reached; RIP already advanced
)

func (k TrapKind) String() string {
	switch k {
	case TrapNone:
		return "none"
	case TrapPageFault:
		return "#PF"
	case TrapBusError:
		return "#BUS"
	case TrapInvalidOp:
		return "#UD"
	case TrapDivide:
		return "#DE"
	case TrapGP:
		return "#GP"
	case TrapSoft:
		return "int"
	case TrapSyscall:
		return "syscall"
	case TrapHlt:
		return "hlt"
	case TrapBudget:
		return "budget"
	case TrapHelperExit:
		return "helper-exit"
	case TrapIRQ:
		return "irq"
	}
	return "?"
}

// Trap describes a VM exit. For page faults, Inst holds the decoded faulting
// instruction and NextRIP the address of the following one, which lets the
// hypervisor emulate MMIO accesses and resume past them — the standard
// device-emulation path of a hardware hypervisor.
type Trap struct {
	Kind    TrapKind
	Vec     uint8  // TRAP vector
	Addr    uint64 // faulting virtual address
	Access  Access
	RIP     uint64
	NextRIP uint64
	Inst    Inst
	Code    uint64 // helper exit code
}

func (t Trap) String() string {
	switch t.Kind {
	case TrapPageFault:
		return fmt.Sprintf("#PF %s @%#x rip=%#x", t.Access, t.Addr, t.RIP)
	case TrapSoft:
		return fmt.Sprintf("int %d rip=%#x", t.Vec, t.RIP)
	default:
		return fmt.Sprintf("%s rip=%#x", t.Kind, t.RIP)
	}
}

// HelperAction is returned by helper functions.
type HelperAction uint8

// Helper outcomes: continue executing, or stop and hand a TrapHelperExit to
// the embedder (used by the engines to bail out to their dispatcher).
const (
	HelperContinue HelperAction = iota
	HelperExit
)

// HelperFunc is a native runtime function callable from generated code via
// the HELPER instruction. Arguments and results use R0–R5 by convention.
type HelperFunc func(c *CPU) HelperAction

type tlbEntry struct {
	vaPage uint64 // va >> 12, tag; ^0 when invalid
	pcid   uint16
	paPage uint64
	write  bool
	user   bool
}

// PhysMem is the simulated physical memory of the host virtual machine.
type PhysMem []byte

// R64 reads a 64-bit little-endian word at pa.
func (p PhysMem) R64(pa uint64) uint64 { return binary.LittleEndian.Uint64(p[pa:]) }

// R32 reads a 32-bit word.
func (p PhysMem) R32(pa uint64) uint32 { return binary.LittleEndian.Uint32(p[pa:]) }

// R16 reads a 16-bit word.
func (p PhysMem) R16(pa uint64) uint16 { return binary.LittleEndian.Uint16(p[pa:]) }

// R8 reads a byte.
func (p PhysMem) R8(pa uint64) uint8 { return p[pa] }

// W64 writes a 64-bit little-endian word at pa.
func (p PhysMem) W64(pa uint64, v uint64) { binary.LittleEndian.PutUint64(p[pa:], v) }

// W32 writes a 32-bit word.
func (p PhysMem) W32(pa uint64, v uint32) { binary.LittleEndian.PutUint32(p[pa:], v) }

// W16 writes a 16-bit word.
func (p PhysMem) W16(pa uint64, v uint16) { binary.LittleEndian.PutUint16(p[pa:], v) }

// W8 writes a byte.
func (p PhysMem) W8(pa uint64, v uint8) { p[pa] = v }

// Stats aggregates the architectural event counters the benchmarks report.
type Stats struct {
	Insts     uint64 // VX64 instructions retired
	Cycles    uint64 // deci-cycles
	TLBHits   uint64
	TLBMisses uint64
	Faults    uint64 // page faults delivered
	Helpers   uint64
	Traps     uint64
}

// ProfCell is one slot of the per-block profile arena: execution count and
// simulated deci-cycles attributed to the block. Cells are bumped by the
// PROFCNT instruction the DBT engines fuse into every translated block's
// instrumentation prologue — a slice indexed by slot id, never a map, so
// profiling stays on with chaining and superblocks at zero dispatch cost.
type ProfCell struct {
	Runs   uint64
	Cycles uint64
}

// CPU is a VX64 hardware thread. The zero value is not usable; create one
// with NewCPU.
type CPU struct {
	R   [16]uint64 // general-purpose registers
	X   [16]uint64 // FP registers (IEEE-754 binary64 bit patterns)
	F   Flags
	RIP uint64
	CR3 uint64
	CPL uint8

	Phys PhysMem

	// DirectBase, when non-zero, enables the hypervisor direct map: virtual
	// addresses at or above it translate to (va - DirectBase) without
	// consulting the page tables. See DESIGN.md §7 for why this is
	// permitted from all rings in this simulation.
	DirectBase uint64

	Helpers []HelperFunc

	Stats Stats

	// Prof is the profile arena PROFCNT indexes by Imm; the embedder owns
	// allocation (engine translateBlock appends one cell per block) and must
	// re-assign the field after growing it. TraceBlock, when non-nil, fires
	// at every PROFCNT — the DBT engines' block-entry trace hook; it is nil
	// unless block tracing is enabled, so the disabled path is one pointer
	// compare.
	Prof       []ProfCell
	TraceBlock func()

	// profLast/profMark implement marker-to-marker cycle attribution:
	// profLast is the arena slot of the block currently executing (-1 none)
	// and profMark the Stats.Cycles reading at its PROFCNT. The next PROFCNT
	// (or ProfPause) flushes the delta into the cell.
	profLast int32
	profMark uint64

	tlb [tlbSize]tlbEntry

	// The code region [codeLo, codeHi) of physical memory, where the DBT
	// engines place generated code (empty until SetCodeRegion).
	codeLo, codeHi uint64

	// One-entry fetch translation cache.
	fetchVAPage uint64
	fetchPAPage uint64
	fetchOK     bool
	fetchCPL    uint8

	// trap is the pending trap recorded by execOp and step when they
	// return false, and the record Run hands back — a field rather than a
	// return value so neither the hot dispatch loops nor a superblock exit
	// copy the (large) Trap struct.
	trap Trap

	// Kick is the cross-CPU doorbell: when set (from any goroutine), the
	// next block-entry IRQCHK traps out to the embedder regardless of its
	// deadline. The SMP engine uses it to pull a sibling vCPU out of
	// translated code before mutating shared translation state; the embedder
	// clears it. Chained and superblocked entries still pass through IRQCHK,
	// so a kicked CPU reaches its dispatcher at the next block boundary.
	Kick atomic.Bool

	// Superblock execution state (superblock.go): a direct-mapped cache of
	// predecoded straight-line runs keyed by code-region offset, their ops
	// in an arena filled from index sbNext, and a per-page generation
	// counter bumped by InvalidateCode so stale superblocks are rebuilt on
	// next entry. No live superblock extends past code-region offset
	// sbHigh.
	sbTab     []sbSlot
	sbArena   *sbArena
	sbNext    int
	sbPageGen []uint32
	sbHigh    uint64
}

// NewCPU creates a CPU over the given physical memory.
func NewCPU(phys PhysMem) *CPU {
	c := &CPU{Phys: phys, profLast: -1}
	c.FlushTLB()
	return c
}

// ProfPause closes the open profile interval: the cycles accumulated since
// the last PROFCNT are flushed into its cell and attribution stops until the
// next PROFCNT. The engines call it when control returns to the dispatcher,
// so dispatch, translation and exception-injection costs are never
// attributed to a guest block.
func (c *CPU) ProfPause() {
	if c.profLast >= 0 {
		c.Prof[c.profLast].Cycles += c.Stats.Cycles - c.profMark
		c.profLast = -1
	}
}

// SetCodeRegion declares [lo, hi) of physical memory as the generated-code
// region and enables superblock execution over it.
func (c *CPU) SetCodeRegion(lo, hi uint64) {
	c.codeLo, c.codeHi = lo, hi
	c.sbTab = make([]sbSlot, sbTableSize)
	// A zeroed slot reads as a run at offset 0 built on generation-0
	// pages, so the slot offset 0 hashes to starts with a key no run has.
	c.sbTab[sbHash(0)].off = ^uint64(0)
	if c.sbArena == nil {
		c.sbArena = new(sbArena)
	}
	c.sbNext = 0
	c.sbPageGen = make([]uint32, (hi-lo+PageSize-1)/PageSize)
	c.sbHigh = 0
}

// InvalidateCode drops the superblocks covering [pa, pa+n); the engines
// call this after patching or overwriting generated code (chain
// patch/unpatch, SMC page invalidation, block installation). This is the
// coherence contract of the superblock cache: code-region bytes changed by
// any other means are stale for Run until it is called. Step always
// decodes from memory.
//
// Only the part of the range below sbHigh can hold a live superblock, so a
// range at or above it (fresh code being installed) costs nothing, and a
// range reaching it lowers sbHigh to the range's start: every superblock
// ending above that start touches one of the bumped pages. A full-region
// flush therefore costs time in proportion to the code run since the
// previous one, whatever the region's size.
func (c *CPU) InvalidateCode(pa, n uint64) {
	if pa >= c.codeHi || pa+n <= c.codeLo {
		return
	}
	lo := max(pa, c.codeLo) - c.codeLo
	hi := min(pa+n, c.codeHi) - c.codeLo
	if hi <= lo {
		return
	}
	c.fetchOK = false
	if lo >= c.sbHigh {
		return
	}
	hi = min(hi, c.sbHigh)
	// Superblocks are invalidated lazily: bump the generation of every
	// covered page; runSuperblock rebuilds on generation mismatch.
	for p := lo >> PageShift; p <= (hi-1)>>PageShift; p++ {
		c.sbPageGen[p]++
	}
	if hi == c.sbHigh {
		c.sbHigh = lo
	}
}

// SetCR3 loads CR3 from the hypervisor side, emulating a WRCR3 executed on
// behalf of generated code. With flush=false this is the PCID-preserving
// no-flush form of §2.7.5.
func (c *CPU) SetCR3(v uint64, flush bool) {
	c.CR3 = v &^ uint64(CR3NoFlush)
	if flush {
		c.flushPCID(uint16(v & pcidMask))
	}
	c.fetchOK = false
}

// FlushTLB invalidates every TLB entry.
func (c *CPU) FlushTLB() {
	for i := range c.tlb {
		c.tlb[i].vaPage = ^uint64(0)
	}
	c.fetchOK = false
}

// flushPCID invalidates entries belonging to one PCID.
func (c *CPU) flushPCID(pcid uint16) {
	for i := range c.tlb {
		if c.tlb[i].pcid == pcid {
			c.tlb[i].vaPage = ^uint64(0)
		}
	}
	c.fetchOK = false
}

// Invlpg invalidates the TLB entry covering va under the current PCID.
func (c *CPU) Invlpg(va uint64) {
	e := &c.tlb[(va>>PageShift)%tlbSize]
	if e.vaPage == va>>PageShift {
		e.vaPage = ^uint64(0)
	}
	c.fetchOK = false
}

// fault is an internal translation failure.
type fault struct {
	addr   uint64
	access Access
	bus    bool
}

// translate resolves va for the given access kind at privilege cpl. It
// consults the direct map, then the TLB, then performs a hardware page walk
// and fills the TLB.
func (c *CPU) translate(va uint64, access Access, cpl uint8) (uint64, *fault) {
	if c.DirectBase != 0 && va >= c.DirectBase {
		pa := va - c.DirectBase
		if pa >= uint64(len(c.Phys)) {
			return 0, &fault{addr: va, access: access, bus: true}
		}
		return pa, nil
	}
	vaPage := va >> PageShift
	pcid := uint16(c.CR3 & pcidMask)
	e := &c.tlb[vaPage%tlbSize]
	if e.vaPage == vaPage && e.pcid == pcid {
		if access == AccessWrite && !e.write {
			return 0, &fault{addr: va, access: access}
		}
		if cpl == 3 && !e.user {
			return 0, &fault{addr: va, access: access}
		}
		c.Stats.TLBHits++
		return e.paPage<<PageShift | va&PageMask, nil
	}
	c.Stats.TLBMisses++
	c.Stats.Cycles += CostTLBMiss
	paPage, write, user, ok := c.walk(va)
	if !ok {
		return 0, &fault{addr: va, access: access}
	}
	*e = tlbEntry{vaPage: vaPage, pcid: pcid, paPage: paPage, write: write, user: user}
	if access == AccessWrite && !write {
		return 0, &fault{addr: va, access: access}
	}
	if cpl == 3 && !user {
		return 0, &fault{addr: va, access: access}
	}
	return paPage<<PageShift | va&PageMask, nil
}

// walk performs the 4-level hardware page walk. Effective permissions are
// the AND across levels (write-protect applies to ring 0 too, i.e. CR0.WP=1
// semantics, which the Captive engine relies on for self-modifying-code
// detection, §2.6).
func (c *CPU) walk(va uint64) (paPage uint64, write, user, ok bool) {
	root := c.CR3 & PTEAddrMask
	write, user = true, true
	table := root
	for level := 3; level >= 0; level-- {
		idx := (va >> (PageShift + 9*uint(level))) & 0x1FF
		pteAddr := table + idx*8
		if pteAddr+8 > uint64(len(c.Phys)) {
			return 0, false, false, false
		}
		pte := c.Phys.R64(pteAddr)
		if pte&PTEPresent == 0 {
			return 0, false, false, false
		}
		write = write && pte&PTEWrite != 0
		user = user && pte&PTEUser != 0
		if level == 1 && pte&PTELarge != 0 {
			base := pte & PTEAddrMask &^ uint64(0x1FFFFF)
			return (base | va&0x1FF000) >> PageShift, write, user, true
		}
		if level == 0 {
			return pte & PTEAddrMask >> PageShift, write, user, true
		}
		table = pte & PTEAddrMask
	}
	return 0, false, false, false
}

// memRead translates and reads size bytes (1,2,4,8), zero-extended.
func (c *CPU) memRead(va uint64, size uint8) (uint64, *fault) {
	pa, f := c.translate(va, AccessRead, c.CPL)
	if f != nil {
		return 0, f
	}
	if pa+uint64(size) > uint64(len(c.Phys)) {
		return 0, &fault{addr: va, access: AccessRead, bus: true}
	}
	switch size {
	case 1:
		return uint64(c.Phys.R8(pa)), nil
	case 2:
		return uint64(c.Phys.R16(pa)), nil
	case 4:
		return uint64(c.Phys.R32(pa)), nil
	default:
		return c.Phys.R64(pa), nil
	}
}

func (c *CPU) memWrite(va uint64, size uint8, v uint64) *fault {
	pa, f := c.translate(va, AccessWrite, c.CPL)
	if f != nil {
		return f
	}
	// A write that crosses a page boundary proceeds physically contiguous
	// from the first byte's frame, but write permission is checked on the
	// last byte's page too: a misaligned store must not leak into the next
	// page past its write protection — that is exactly how an SMC store
	// spilling into a translated-code page used to bypass the engines'
	// page-protection detection.
	if end := va + uint64(size) - 1; size > 1 &&
		(c.DirectBase == 0 || va < c.DirectBase) && (va^end)>>PageShift != 0 {
		if _, f := c.translate(end, AccessWrite, c.CPL); f != nil {
			return f
		}
	}
	if pa+uint64(size) > uint64(len(c.Phys)) {
		return &fault{addr: va, access: AccessWrite, bus: true}
	}
	switch size {
	case 1:
		c.Phys.W8(pa, uint8(v))
	case 2:
		c.Phys.W16(pa, uint16(v))
	case 4:
		c.Phys.W32(pa, uint32(v))
	default:
		c.Phys.W64(pa, v)
	}
	return nil
}

// ea computes the effective address of a memory operand.
func (c *CPU) ea(m Mem) uint64 {
	a := c.R[m.Base] + uint64(int64(m.Disp))
	if m.Index != NoReg {
		a += c.R[m.Index] * uint64(m.Scale)
	}
	return a
}

// fetchInst decodes the instruction at RIP from memory, using the fetch
// translation cache.
func (c *CPU) fetchInst() (Inst, int, *fault) {
	va := c.RIP
	vaPage := va >> PageShift
	if !(c.fetchOK && c.fetchVAPage == vaPage && c.fetchCPL == c.CPL) {
		pa, f := c.translate(va, AccessExec, c.CPL)
		if f != nil {
			return Inst{}, 0, f
		}
		c.fetchVAPage, c.fetchPAPage, c.fetchCPL, c.fetchOK = vaPage, pa>>PageShift, c.CPL, true
	}
	pa := c.fetchPAPage<<PageShift | va&PageMask
	inst, n, err := Decode(c.Phys, int(pa))
	if err != nil {
		return Inst{}, 0, &fault{addr: va, access: AccessExec, bus: true}
	}
	return inst, n, nil
}

func (c *CPU) setZS(v uint64) {
	c.F.Z = v == 0
	c.F.S = int64(v) < 0
	c.F.U = false
}

func (c *CPU) aluAdd(a, b uint64) uint64 {
	r := a + b
	c.setZS(r)
	c.F.C = r < a
	c.F.O = int64((a^r)&(b^r)) < 0
	return r
}

func (c *CPU) aluSub(a, b uint64) uint64 {
	r := a - b
	c.setZS(r)
	c.F.C = a < b
	c.F.O = int64((a^b)&(a^r)) < 0
	return r
}

func (c *CPU) aluLogic(r uint64) uint64 {
	c.setZS(r)
	c.F.C, c.F.O = false, false
	return r
}

// pageFault finalizes a translation fault into a Trap.
func (c *CPU) pageFault(f *fault, inst *Inst, next uint64) Trap {
	c.Stats.Faults++
	c.Stats.Cycles += CostFaultHandled
	kind := TrapPageFault
	if f.bus {
		kind = TrapBusError
	}
	t := Trap{Kind: kind, Addr: f.addr, Access: f.access, RIP: c.RIP, NextRIP: next}
	if inst != nil {
		t.Inst = *inst
	}
	return t
}

// Run executes instructions until a trap occurs or cycleBudget deci-cycles
// have been consumed (measured from the current Stats.Cycles).
//
// Inside the declared code region, fetches through the direct map execute
// as superblocks (superblock.go): predecoded straight-line runs dispatched
// without the per-instruction fetch-translation check, decode and budget
// comparison. The architectural outcome — registers, memory,
// Stats.Insts, Stats.Cycles, trap points — is bit-identical to stepping.
//
// The returned trap is the CPU's own record, valid until the next Run or
// Step: no exit copies the (large) Trap struct.
func (c *CPU) Run(cycleBudget uint64) *Trap {
	limit := c.Stats.Cycles + cycleBudget
	for c.Stats.Cycles < limit {
		if c.DirectBase != 0 && c.RIP >= c.DirectBase {
			if pa := c.RIP - c.DirectBase; pa >= c.codeLo && pa < c.codeHi {
				if c.runSuperblock(pa-c.codeLo, limit) {
					return &c.trap
				}
				continue
			}
		}
		if !c.step() {
			return &c.trap
		}
	}
	c.trap = Trap{Kind: TrapBudget, RIP: c.RIP}
	return &c.trap
}

// Step executes a single instruction. A TrapNone result means execution can
// continue.
func (c *CPU) Step() Trap {
	if c.step() {
		return Trap{}
	}
	return c.trap
}

// step executes a single instruction. It returns true when execution can
// continue, or false with the trap recorded in c.trap.
func (c *CPU) step() bool {
	inst, n, f := c.fetchInst()
	if f != nil {
		c.trap = c.pageFault(f, nil, c.RIP)
		return false
	}
	next := c.RIP + uint64(n)
	c.Stats.Insts++
	c.Stats.Cycles += opCost[inst.Op]
	return c.execOp(&inst, next)
}

// execOp executes one decoded instruction whose fall-through successor is
// next. It returns true when execution can continue (c.RIP updated by the
// instruction), or false with the trap recorded in c.trap — kept out of the
// return path because Trap is a large struct and this is the hottest
// function in the simulator. Instruction accounting (Stats.Insts and the
// opCost charge) is the caller's job, so step and the superblock loop
// retire identically.
func (c *CPU) execOp(inst *Inst, next uint64) bool {
	R := &c.R
	switch inst.Op {
	case NOP:
	case MOVrr:
		R[inst.Rd] = R[inst.Rs]
	case MOVI8, MOVI32, MOVI64:
		R[inst.Rd] = uint64(inst.Imm)
	case LOAD8, LOAD16, LOAD32, LOAD64, LOADS8, LOADS16, LOADS32:
		size, sign := loadWidth(inst.Op)
		v, f := c.memRead(c.ea(inst.M), size)
		if f != nil {
			c.trap = c.pageFault(f, inst, next)
			return false
		}
		if sign {
			v = signExtend(v, size)
		}
		R[inst.Rd] = v
	case STORE8, STORE16, STORE32, STORE64:
		size := storeWidth(inst.Op)
		if f := c.memWrite(c.ea(inst.M), size, R[inst.Rs]); f != nil {
			c.trap = c.pageFault(f, inst, next)
			return false
		}
	case IRQCHK:
		v, f := c.memRead(c.ea(inst.M), 8)
		if f != nil {
			c.trap = c.pageFault(f, inst, next)
			return false
		}
		if R[inst.Rs] >= v || c.Kick.Load() {
			c.RIP = next
			c.trap = Trap{Kind: TrapIRQ, RIP: c.RIP, NextRIP: next}
			return false
		}
	case PROFCNT:
		// Marker-to-marker attribution. The mark is taken CostLoad early so
		// each block's own instrumentation prologue LOAD64 (always an L1-hit
		// direct-map access: exactly CostLoad, no TLB charge) is attributed
		// to the block it opens, not the block it closes — preserving the
		// per-entry deltas of the old dispatcher-side profiler.
		m := c.Stats.Cycles - CostLoad
		if c.profLast >= 0 {
			c.Prof[c.profLast].Cycles += m - c.profMark
		}
		c.profLast = int32(inst.Imm)
		c.profMark = m
		c.Prof[inst.Imm].Runs++
		if c.TraceBlock != nil {
			c.TraceBlock()
		}
	case LEA:
		R[inst.Rd] = c.ea(inst.M)
	case ADDrr:
		R[inst.Rd] = c.aluAdd(R[inst.Rd], R[inst.Rs])
	case ADDri:
		R[inst.Rd] = c.aluAdd(R[inst.Rd], uint64(inst.Imm))
	case SUBrr:
		R[inst.Rd] = c.aluSub(R[inst.Rd], R[inst.Rs])
	case SUBri:
		R[inst.Rd] = c.aluSub(R[inst.Rd], uint64(inst.Imm))
	case ANDrr:
		R[inst.Rd] = c.aluLogic(R[inst.Rd] & R[inst.Rs])
	case ANDri:
		R[inst.Rd] = c.aluLogic(R[inst.Rd] & uint64(inst.Imm))
	case ORrr:
		R[inst.Rd] = c.aluLogic(R[inst.Rd] | R[inst.Rs])
	case ORri:
		R[inst.Rd] = c.aluLogic(R[inst.Rd] | uint64(inst.Imm))
	case XORrr:
		R[inst.Rd] = c.aluLogic(R[inst.Rd] ^ R[inst.Rs])
	case XORri:
		R[inst.Rd] = c.aluLogic(R[inst.Rd] ^ uint64(inst.Imm))
	case SHLrr:
		R[inst.Rd] = c.aluLogic(R[inst.Rd] << (R[inst.Rs] & 63))
	case SHLri:
		R[inst.Rd] = c.aluLogic(R[inst.Rd] << (uint64(inst.Imm) & 63))
	case SHRrr:
		R[inst.Rd] = c.aluLogic(R[inst.Rd] >> (R[inst.Rs] & 63))
	case SHRri:
		R[inst.Rd] = c.aluLogic(R[inst.Rd] >> (uint64(inst.Imm) & 63))
	case SARrr:
		R[inst.Rd] = c.aluLogic(uint64(int64(R[inst.Rd]) >> (R[inst.Rs] & 63)))
	case SARri:
		R[inst.Rd] = c.aluLogic(uint64(int64(R[inst.Rd]) >> (uint64(inst.Imm) & 63)))
	case MULrr:
		R[inst.Rd] = c.aluLogic(R[inst.Rd] * R[inst.Rs])
	case UMULH:
		hi, _ := bits.Mul64(R[inst.Rd], R[inst.Rs])
		R[inst.Rd] = hi
	case SMULH:
		R[inst.Rd] = uint64(mulHighSigned(int64(R[inst.Rd]), int64(R[inst.Rs])))
	case UDIVrr:
		d := R[inst.Rs]
		if d == 0 {
			c.trap = Trap{Kind: TrapDivide, RIP: c.RIP, NextRIP: next}
			return false
		}
		R[inst.Rd] /= d
	case SDIVrr:
		d := int64(R[inst.Rs])
		a := int64(R[inst.Rd])
		if d == 0 || (a == -1<<63 && d == -1) {
			c.trap = Trap{Kind: TrapDivide, RIP: c.RIP, NextRIP: next}
			return false
		}
		R[inst.Rd] = uint64(a / d)
	case UREMrr:
		d := R[inst.Rs]
		if d == 0 {
			c.trap = Trap{Kind: TrapDivide, RIP: c.RIP, NextRIP: next}
			return false
		}
		R[inst.Rd] %= d
	case SREMrr:
		d := int64(R[inst.Rs])
		a := int64(R[inst.Rd])
		if d == 0 || (a == -1<<63 && d == -1) {
			c.trap = Trap{Kind: TrapDivide, RIP: c.RIP, NextRIP: next}
			return false
		}
		R[inst.Rd] = uint64(a % d)
	case NEGr:
		R[inst.Rd] = c.aluSub(0, R[inst.Rd])
	case NOTr:
		R[inst.Rd] = ^R[inst.Rd]
	case CMPrr:
		c.aluSub(R[inst.Rd], R[inst.Rs])
	case CMPri:
		c.aluSub(R[inst.Rd], uint64(inst.Imm))
	case TESTrr:
		c.aluLogic(R[inst.Rd] & R[inst.Rs])
	case TESTri:
		c.aluLogic(R[inst.Rd] & uint64(inst.Imm))
	case SETcc:
		if c.F.Eval(inst.Cond) {
			R[inst.Rd] = 1
		} else {
			R[inst.Rd] = 0
		}
	case CMOVcc:
		if c.F.Eval(inst.Cond) {
			R[inst.Rd] = R[inst.Rs]
		}
	case RDNZCV:
		var v uint64
		if c.F.S {
			v |= 8
		}
		if c.F.Z {
			v |= 4
		}
		if c.F.C {
			v |= 2
		}
		if c.F.O {
			v |= 1
		}
		R[inst.Rd] = v
	case JCC:
		if c.F.Eval(inst.Cond) {
			c.Stats.Cycles += CostBrTaken - CostBrFall
			next = uint64(int64(next) + inst.Imm)
		}
	case JMP:
		next = uint64(int64(next) + inst.Imm)
	case JMPR:
		next = R[inst.Rd]
	case CALL, CALLR:
		sp := R[RSP] - 8
		if f := c.memWrite(sp, 8, next); f != nil {
			c.trap = c.pageFault(f, inst, next)
			return false
		}
		R[RSP] = sp
		if inst.Op == CALL {
			next = uint64(int64(next) + inst.Imm)
		} else {
			next = R[inst.Rd]
		}
	case RET:
		v, f := c.memRead(R[RSP], 8)
		if f != nil {
			c.trap = c.pageFault(f, inst, next)
			return false
		}
		R[RSP] += 8
		next = v
	case HELPER:
		id := int(inst.Imm)
		if id >= len(c.Helpers) || c.Helpers[id] == nil {
			c.trap = Trap{Kind: TrapInvalidOp, RIP: c.RIP, NextRIP: next}
			return false
		}
		c.Stats.Helpers++
		c.RIP = next // helpers observe the post-call RIP
		if c.Helpers[id](c) == HelperExit {
			c.trap = Trap{Kind: TrapHelperExit, RIP: c.RIP, NextRIP: next, Code: c.R[R0]}
			return false
		}
		next = c.RIP // a helper may redirect control
	case TRAP:
		c.Stats.Traps++
		c.RIP = next
		c.trap = Trap{Kind: TrapSoft, Vec: uint8(inst.Imm), RIP: c.RIP, NextRIP: next}
		return false
	case SYSCALL:
		c.Stats.Traps++
		c.RIP = next
		c.trap = Trap{Kind: TrapSyscall, RIP: c.RIP, NextRIP: next}
		return false
	case SYSRET:
		c.RIP = next
		c.trap = Trap{Kind: TrapGP, RIP: c.RIP, NextRIP: next}
		return false
	case HLT:
		c.RIP = next
		c.trap = Trap{Kind: TrapHlt, RIP: c.RIP, NextRIP: next}
		return false
	case INport, OUTport:
		// Port I/O always exits to the hypervisor (KVM-style).
		c.RIP = next
		c.trap = Trap{Kind: TrapSoft, Vec: 0xFE, RIP: c.RIP, NextRIP: next, Inst: *inst}
		return false
	case WRCR3:
		if c.CPL != 0 {
			c.trap = Trap{Kind: TrapGP, RIP: c.RIP, NextRIP: next}
			return false
		}
		v := R[inst.Rd]
		newPCID := uint16(v & pcidMask)
		c.CR3 = v &^ uint64(CR3NoFlush)
		if v&CR3NoFlush == 0 {
			c.flushPCID(newPCID)
			c.Stats.Cycles += CostWrCR3 - opCost[WRCR3]
		} else {
			c.Stats.Cycles += CostWrCR3PCID - opCost[WRCR3]
		}
		c.fetchOK = false
	case RDCR3:
		if c.CPL != 0 {
			c.trap = Trap{Kind: TrapGP, RIP: c.RIP, NextRIP: next}
			return false
		}
		R[inst.Rd] = c.CR3
	case INVLPG:
		if c.CPL != 0 {
			c.trap = Trap{Kind: TrapGP, RIP: c.RIP, NextRIP: next}
			return false
		}
		c.Invlpg(R[inst.Rd])
	case TLBFLUSHALL:
		if c.CPL != 0 {
			c.trap = Trap{Kind: TrapGP, RIP: c.RIP, NextRIP: next}
			return false
		}
		c.FlushTLB()
	case FLD:
		v, f := c.memRead(c.ea(inst.M), 8)
		if f != nil {
			c.trap = c.pageFault(f, inst, next)
			return false
		}
		c.X[inst.Rd] = v
	case FST:
		if f := c.memWrite(c.ea(inst.M), 8, c.X[inst.Rs]); f != nil {
			c.trap = c.pageFault(f, inst, next)
			return false
		}
	case FMOVxr:
		c.X[inst.Rd] = R[inst.Rs]
	case FMOVrx:
		R[inst.Rd] = c.X[inst.Rs]
	case FMOVxx:
		c.X[inst.Rd] = c.X[inst.Rs]
	case FADD:
		c.X[inst.Rd] = softfloat.Add64(c.X[inst.Rs], c.X[inst.Rs2], softfloat.SemX86)
	case FSUB:
		c.X[inst.Rd] = softfloat.Sub64(c.X[inst.Rs], c.X[inst.Rs2], softfloat.SemX86)
	case FMUL:
		c.X[inst.Rd] = softfloat.Mul64(c.X[inst.Rs], c.X[inst.Rs2], softfloat.SemX86)
	case FDIV:
		c.X[inst.Rd] = softfloat.Div64(c.X[inst.Rs], c.X[inst.Rs2], softfloat.SemX86)
	case FMIN:
		c.X[inst.Rd] = softfloat.Min64(c.X[inst.Rs], c.X[inst.Rs2], softfloat.SemX86)
	case FMAX:
		c.X[inst.Rd] = softfloat.Max64(c.X[inst.Rs], c.X[inst.Rs2], softfloat.SemX86)
	case FSQRT:
		c.X[inst.Rd] = softfloat.Sqrt64(c.X[inst.Rs], softfloat.SemX86)
	case FNEG:
		c.X[inst.Rd] = softfloat.Neg64(c.X[inst.Rs])
	case FABS:
		c.X[inst.Rd] = softfloat.Abs64(c.X[inst.Rs])
	case FCMP:
		fl := softfloat.Cmp64(c.X[inst.Rd], c.X[inst.Rs])
		// UCOMISD mapping: unordered => Z,C,U; less => C; equal => Z.
		c.F = Flags{}
		switch fl {
		case softfloat.FlagC | softfloat.FlagV: // unordered
			c.F.Z, c.F.C, c.F.U = true, true, true
		case softfloat.FlagZ | softfloat.FlagC: // equal
			c.F.Z = true
		case softfloat.FlagN: // less
			c.F.C = true
		}
	case CVTSI2SD:
		c.X[inst.Rd] = softfloat.I64ToF64(int64(R[inst.Rs]))
	case CVTUI2SD:
		c.X[inst.Rd] = softfloat.U64ToF64(R[inst.Rs])
	case CVTSD2SI:
		R[inst.Rd] = uint64(softfloat.F64ToI64(c.X[inst.Rs], softfloat.SemX86))
	case CVTSD2UI:
		R[inst.Rd] = softfloat.F64ToU64(c.X[inst.Rs])
	default:
		c.trap = Trap{Kind: TrapInvalidOp, RIP: c.RIP, NextRIP: next}
		return false
	}
	c.RIP = next
	return true
}

func loadWidth(op Op) (size uint8, sign bool) {
	switch op {
	case LOAD8:
		return 1, false
	case LOAD16:
		return 2, false
	case LOAD32:
		return 4, false
	case LOAD64:
		return 8, false
	case LOADS8:
		return 1, true
	case LOADS16:
		return 2, true
	default:
		return 4, true
	}
}

func storeWidth(op Op) uint8 {
	switch op {
	case STORE8:
		return 1
	case STORE16:
		return 2
	case STORE32:
		return 4
	default:
		return 8
	}
}

func signExtend(v uint64, size uint8) uint64 {
	switch size {
	case 1:
		return uint64(int64(int8(v)))
	case 2:
		return uint64(int64(int16(v)))
	case 4:
		return uint64(int64(int32(v)))
	}
	return v
}

func mulHighSigned(a, b int64) int64 {
	hi, _ := bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return int64(hi)
}
