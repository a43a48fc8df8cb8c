// Package hvm is the hypervisor substrate playing the role KVM plays in the
// paper (§2.3, Fig. 2): it owns the host virtual machine — simulated host
// physical memory, a VX64 CPU with SLAT enabled, and the guest device
// emulations — and hands the Captive engine a bare-metal environment in
// which it is free to build host page tables and run code in any protection
// ring.
//
// Physical memory layout (Fig. 15, concretized), the same formula for every
// vCPU count:
//
//	[0, GuestRAMSize)            emulated guest DRAM (GPA == HPA identity),
//	                             VM.RAM
//	[GuestRAMSize, CaptiveBase)  guard: the rest of guest RAM's last MiB,
//	                             then one unused MiB
//	[CaptiveBase, TotalPhys)     the Captive area: per vCPU, its state page,
//	                             register file, stack and (QEMU baseline)
//	                             softmmu TLB; then the host page-table pool;
//	                             then the code cache
//
// Guest code never addresses the Captive area: the engines check guest
// physical addresses against guest RAM before they reach host memory, and
// the unikernel reaches its own structures through pinned registers and
// the direct map. The guard keeps what a guest access can still touch past
// the end of RAM — the rest of a partial last page, and the up to 7 bytes
// a page-straddling load reads physically contiguous — off vCPU 0's state
// page. The guest's MMIO window is the port's business
// (port.Port.IsDevice/DeviceBase): its addresses are trapped and emulated
// before they reach host memory, so it needs no hole here.
//
// The host virtual address space is split per §2.7.3: the low half holds
// guest virtual addresses (mapped on demand from guest page tables); the
// high half is the hypervisor direct map at DirectBase through which the
// unikernel reaches its own structures.
package hvm

import (
	"fmt"

	"captive/internal/device"
	"captive/internal/guest/port"
	"captive/internal/vx64"
)

// DirectBase is the base of the high-half direct map (-2^47).
const DirectBase = 0xFFFF_8000_0000_0000

// LowHalfMask masks a host virtual address into the guest (low) half.
const LowHalfMask = 0x0000_7FFF_FFFF_FFFF

// Config sizes the host virtual machine.
type Config struct {
	GuestRAMBytes  int // guest DRAM size (max 256 MiB)
	CodeCacheBytes int // translated-code cache (1 MiB to 1 GiB)
	PTPoolBytes    int // host page-table pool (1 MiB to 1 GiB)
	VCPUs          int // guest vCPU count; 0 means 1 (uniprocessor)
}

// Layout is the resolved physical memory map.
type Layout struct {
	GuestRAMSize uint64
	CaptiveBase  uint64
	VCPUs        int
	PTPoolPA     uint64
	PTPoolSize   uint64
	CodePA       uint64
	CodeSize     uint64
	TotalPhys    uint64
}

// cpuStride is the per-vCPU slice of the Captive area: state page, register
// file, stack and (QEMU baseline) softmmu TLB, one slice per vCPU.
const cpuStride = 0x140000

// guardSize is the unused gap between guest RAM (rounded up to a MiB) and
// the Captive area.
const guardSize = 1 << 20

// StatePAOf returns the state page of vCPU i.
func (l *Layout) StatePAOf(i int) uint64 { return l.CaptiveBase + uint64(i)*cpuStride }

// RegFilePAOf returns the guest register file of vCPU i.
func (l *Layout) RegFilePAOf(i int) uint64 { return l.StatePAOf(i) + 0x1000 }

// StackTopOf returns the top of vCPU i's unikernel stack (64 KiB below it,
// growing down).
func (l *Layout) StackTopOf(i int) uint64 { return l.StatePAOf(i) + 0x20000 }

// SoftTLBOf returns the QEMU-baseline softmmu TLB base of vCPU i.
func (l *Layout) SoftTLBOf(i int) uint64 { return l.StatePAOf(i) + 0x100000 }

// PTPoolOf returns the host page-table pool slice of vCPU i: each vCPU
// builds its own host page tables (its own CR3 roots) in a disjoint,
// page-aligned slice of the pool.
func (l *Layout) PTPoolOf(i int) (base, size uint64) {
	per := l.PTPoolSize / uint64(l.VCPUs) &^ 0xFFF
	return l.PTPoolPA + uint64(i)*per, per
}

// State-page slot offsets (from StatePA / R13). The generated code and the
// helpers communicate through these.
const (
	StateModeMask = 0x00 // current address-space half as a sign mask (0 or ~0)
	StateICount   = 0x08 // retired guest instruction counter
	StateArg0     = 0x40 // helper argument/result slots
	StateArg1     = 0x48
	StateArg2     = 0x50
	StateRet      = 0x58
	StateTmp0     = 0x60 // scratch spill slots for fix-up sequences
	StateTmp1     = 0x68
	StateIRQDl    = 0x70 // virtual-time deadline for the block-entry IRQ check
)

// VM is the host virtual machine.
type VM struct {
	Phys vx64.PhysMem
	// RAM is guest DRAM, Phys[:GuestRAMSize] with its capacity capped, so
	// no slice of it reaches past guest RAM.
	RAM    port.RAM
	CPUs   []*vx64.CPU // one host CPU per guest vCPU
	Bus    *device.Bus // its clock (Cycles) is wired by the engine to guest virtual time
	Layout Layout
}

// New creates a host VM.
func New(cfg Config) (*VM, error) {
	if cfg.GuestRAMBytes <= 0 || cfg.GuestRAMBytes > 256<<20 {
		return nil, fmt.Errorf("hvm: guest RAM must be in (0, 256 MiB], got %d", cfg.GuestRAMBytes)
	}
	// The host CPU keys code-region offsets in 32 bits (vx64.SetCodeRegion).
	if cfg.CodeCacheBytes < 1<<20 || cfg.PTPoolBytes < 1<<20 || cfg.CodeCacheBytes > 1<<30 || cfg.PTPoolBytes > 1<<30 {
		return nil, fmt.Errorf("hvm: code cache and PT pool must be in [1 MiB, 1 GiB]")
	}
	n := cfg.VCPUs
	if n <= 0 {
		n = 1
	}
	if n > 8 {
		return nil, fmt.Errorf("hvm: at most 8 vCPUs, got %d", n)
	}
	var l Layout
	l.GuestRAMSize = uint64(cfg.GuestRAMBytes)
	// Guest RAM rounded up to a MiB, then the guard.
	l.CaptiveBase = (l.GuestRAMSize+1<<20-1)&^(1<<20-1) + guardSize
	l.VCPUs = n
	l.PTPoolPA = l.CaptiveBase + uint64(n)*cpuStride
	l.PTPoolSize = uint64(cfg.PTPoolBytes)
	l.CodePA = l.PTPoolPA + l.PTPoolSize
	l.CodeSize = uint64(cfg.CodeCacheBytes)
	l.TotalPhys = l.CodePA + l.CodeSize

	phys := vx64.PhysMem(port.NewRAM(l.TotalPhys))
	cpus := make([]*vx64.CPU, n)
	for i := range cpus {
		cpu := vx64.NewCPU(phys)
		cpu.DirectBase = DirectBase
		cpu.SetCodeRegion(l.CodePA, l.CodePA+l.CodeSize)
		cpus[i] = cpu
	}

	vm := &VM{Phys: phys, RAM: port.RAM(phys[:l.GuestRAMSize:l.GuestRAMSize]), CPUs: cpus, Bus: &device.Bus{}, Layout: l}
	return vm, nil
}

// DirectVA converts a host physical address to its direct-map virtual
// address.
func DirectVA(pa uint64) uint64 { return DirectBase + pa }
