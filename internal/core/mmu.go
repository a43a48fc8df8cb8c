package core

import (
	"captive/internal/guest/port"
	"captive/internal/vx64"
)

// Host-MMU-backed guest virtual memory (§2.7): the engine owns two host
// page-table roots — one for the guest's low (user, TTBR0) half and one for
// its high (kernel, TTBR1) half, both mapping into the low host VA range
// with the high half's addresses masked. The roots carry distinct PCIDs so
// switching between them is a no-flush CR3 load (§2.7.5). Host PTEs are
// created on demand by the page-fault handler from guest PTEs; a guest TLB
// flush or translation-regime change invalidates the roots (clearing the
// 256 low-half PML4 entries, exactly as §2.7.4 describes) and lets the
// fault-driven population rebuild them.

const (
	pcidLow  = 1
	pcidHigh = 2
)

// hostMMU manages the host page-table pool and the two roots.
type hostMMU struct {
	phys     vx64.PhysMem
	cpu      *vx64.CPU
	poolBase uint64
	poolSize uint64
	poolNext uint64

	lowRoot  uint64
	highRoot uint64

	// installedW tracks guest physical pages that have (or had) a writable
	// host mapping, so protectPage knows when the big hammer is needed.
	installedW map[uint64]bool
}

func newHostMMU(phys vx64.PhysMem, cpu *vx64.CPU, poolBase, poolSize uint64) *hostMMU {
	m := &hostMMU{
		phys: phys, cpu: cpu,
		poolBase: poolBase, poolSize: poolSize,
		installedW: make(map[uint64]bool),
	}
	m.lowRoot = m.allocTable()
	m.highRoot = m.allocTable()
	return m
}

// allocTable takes a zeroed 4 KiB page from the pool.
func (m *hostMMU) allocTable() uint64 {
	if m.poolNext+vx64.PageSize > m.poolSize {
		// Pool exhausted: rebuild from scratch (the roots survive at the
		// bottom of the pool).
		m.reset()
	}
	pa := m.poolBase + m.poolNext
	m.poolNext += vx64.PageSize
	clearPage(m.phys, pa)
	return pa
}

func clearPage(phys vx64.PhysMem, pa uint64) {
	clear(phys[pa : pa+vx64.PageSize])
}

// reset drops every host mapping: both roots are cleared and the pool
// rewinds past them; the hardware TLB is flushed. It is also the §2.7.4
// response to guest TLB flushes and translation-regime changes.
func (m *hostMMU) reset() {
	m.poolNext = 2 * vx64.PageSize // keep the two root pages
	clearPage(m.phys, m.lowRoot)
	clearPage(m.phys, m.highRoot)
	clear(m.installedW)
	m.cpu.FlushTLB()
}

// root returns the CR3 value for an address-space half (mode 0 = low).
func (m *hostMMU) rootCR3(mode uint64) uint64 {
	if mode == 0 {
		return m.lowRoot | pcidLow
	}
	return m.highRoot | pcidHigh
}

// install maps hostVA -> hpa in the root for mode, with the given
// writable/user bits. It walks the 4-level host tables, allocating
// intermediate tables from the pool.
func (m *hostMMU) install(mode uint64, hostVA, hpa uint64, writable, user bool) {
	root := m.lowRoot
	if mode != 0 {
		root = m.highRoot
	}
	table := root
	for level := 3; level >= 1; level-- {
		idx := hostVA >> (vx64.PageShift + 9*uint(level)) & 0x1FF
		pteAddr := table + idx*8
		pte := m.phys.R64(pteAddr)
		if pte&vx64.PTEPresent == 0 {
			next := m.allocTable()
			// allocTable may have reset the pool, which clears the
			// roots; restart the walk in that case.
			if m.phys.R64(pteAddr) != pte {
				m.install(mode, hostVA, hpa, writable, user)
				return
			}
			m.phys.W64(pteAddr, next|vx64.PTEPresent|vx64.PTEWrite|vx64.PTEUser)
			table = next
		} else {
			table = pte & vx64.PTEAddrMask
		}
	}
	flags := uint64(vx64.PTEPresent)
	if writable {
		flags |= vx64.PTEWrite
	}
	if user {
		flags |= vx64.PTEUser
	}
	idx := hostVA >> vx64.PageShift & 0x1FF
	m.phys.W64(table+idx*8, hpa&vx64.PTEAddrMask|flags)
	if writable {
		m.installedW[hpa>>vx64.PageShift] = true
	}
}

// protectPage write-protects a guest physical page that now holds
// translated code: host mappings installed from here on are read-only
// (handleHostFault asks the code cache), and already-installed writable
// ones must be downgraded. We take the big hammer (root reset) only when
// such a mapping could exist.
func (m *hostMMU) protectPage(gpaPage uint64) {
	if m.installedW[gpaPage] {
		m.reset()
	}
}

// guestWalk walks the guest page tables through the guest port, using the
// engine's physical memory accessor and charging the walk cost to the CPU.
func (e *Engine) guestWalk(va uint64) port.WalkResult {
	if e.sys.MMUOn() {
		e.cpu.Stats.Cycles += 4 * vx64.CostGuestWalkStep
	}
	return e.sys.Walk(e.vm.GuestPhysRead64, va)
}
