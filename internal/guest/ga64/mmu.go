package ga64

import "captive/internal/guest/port"

// Guest MMU: a 4-level, 4 KiB-page translation regime over 48-bit virtual
// addresses. The upper 16 VA bits select the translation table: all-zeros →
// TTBR0 (user half), all-ones → TTBR1 (kernel half), anything else is a
// translation fault — the same split Linux uses on AArch64, and the property
// Captive's dual-root host mapping exploits (§2.7.5).

// Guest PTE layout (deliberately parallel to the VX64 host PTE so the
// Captive fault handler can translate guest PTEs to host PTEs directly).
const (
	PTEValid    = 1 << 0
	PTEWrite    = 1 << 1
	PTEUser     = 1 << 2
	PTELarge    = 1 << 7 // 2 MiB block at level 1
	PTEAddrMask = 0x0000FFFFFFFFF000

	GuestPageShift = 12
	GuestPageSize  = 1 << GuestPageShift
)

// Physical memory map.
const (
	RAMBase    = 0x00000000
	DeviceBase = 0x10000000
	DeviceSize = 0x00100000
	UARTBase   = DeviceBase + 0x0000
	TimerBase  = DeviceBase + 0x1000
)

// IsDevice reports whether a guest physical address is in the MMIO window.
func IsDevice(pa uint64) bool {
	return pa >= DeviceBase && pa < DeviceBase+DeviceSize
}

// WalkResult is the outcome of a guest page-table walk (the shared
// guest-port type; Block marks 2 MiB entries here).
type WalkResult = port.WalkResult

// PhysRead64 reads a 64-bit word of guest physical memory; ok is false for
// out-of-range addresses (port.RAM.Read64 on every engine).
type PhysRead64 = port.PhysRead64

// Walk translates va under the system state. With the MMU off it is the
// identity with full permissions. The walk itself performs up to four
// physical reads, which the engines charge to their cost models.
func Walk(read PhysRead64, s *Sys, va uint64) WalkResult {
	// GA64 has no separate read/execute permission bits: every mapped page
	// is readable and executable (fetch permission equals read permission).
	if !s.MMUOn() {
		return WalkResult{PA: va, Read: true, Write: true, Exec: true, User: true, OK: true}
	}
	top := va >> 48
	var root uint64
	switch top {
	case 0x0000:
		root = s.TTBR0 & PTEAddrMask
	case 0xFFFF:
		root = s.TTBR1 & PTEAddrMask
	default:
		return WalkResult{}
	}
	if root == 0 {
		return WalkResult{}
	}
	table := root
	write, user := true, true
	for level := 3; level >= 0; level-- {
		idx := va >> (GuestPageShift + 9*uint(level)) & 0x1FF
		pte, ok := read(table + idx*8)
		if !ok || pte&PTEValid == 0 {
			return WalkResult{}
		}
		write = write && pte&PTEWrite != 0
		user = user && pte&PTEUser != 0
		if level == 1 && pte&PTELarge != 0 {
			base := pte & PTEAddrMask &^ uint64(0x1FFFFF)
			return WalkResult{
				PA: base | va&0x1FFFFF, Read: true, Write: write, Exec: true,
				User: user, OK: true, Block: true,
			}
		}
		if level == 0 {
			return WalkResult{
				PA: pte&PTEAddrMask | va&(GuestPageSize-1), Read: true, Write: write,
				Exec: true, User: user, OK: true,
			}
		}
		table = pte & PTEAddrMask
	}
	return WalkResult{}
}

// AbortISS builds the data/instruction abort syndrome for a failed access.
func AbortISS(translation bool, write bool) uint32 {
	iss := uint32(ISSPermission)
	if translation {
		iss = ISSTranslation
	}
	if write {
		iss |= ISSWrite
	}
	return iss
}

// AbortEC selects the exception class for an abort.
func AbortEC(insn bool, fromEL uint8) uint8 {
	switch {
	case insn && fromEL == 0:
		return ECInsnAbortLower
	case insn:
		return ECInsnAbortSame
	case fromEL == 0:
		return ECDataAbortLower
	default:
		return ECDataAbortSame
	}
}
