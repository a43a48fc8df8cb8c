// Package metrics defines the unified, exported metrics snapshot of the
// execution engines: one flat, JSON-taggable struct covering the runtime
// event counters, the compilation statistics and the simulated host CPU's
// architectural counters, so the three engines — Captive, the QEMU-style
// baseline and the reference interpreter — export through one diffable
// shape (cmd/captive -metrics, the perfbench report). The DBT engine keeps
// its own counters in a Snapshot, updated in place.
//
// The struct deliberately lives below internal/core in the import graph
// (it imports only the standard library) so benchmarks, difftest and future services
// (ROADMAP item 3's captived) can consume snapshots without importing the
// engines.
package metrics

import "reflect"

// Snapshot is one engine's metrics at a point in time.
//
// Two families of fields, mirroring PAPER.md's two time axes: the
// *deterministic* fields (instruction counts, simulated deci-cycles, event
// counters, JIT size counters) are bit-identical across runs of the same
// program and may be compared or regression-gated; the *wall-clock-derived*
// fields (the *_ns translation times) measure the real host and must be
// ignored by any baseline comparison — the model golden of internal/bench
// holds deterministic fields only.
type Snapshot struct {
	Engine string `json:"engine,omitempty"` // captive | qemu | interp

	// Architectural / simulated-model axis (deterministic).
	GuestInstrs   uint64 `json:"guest_instrs"`
	VirtualTime   uint64 `json:"virtual_time"` // instrs + WFI idle-skip
	SimDeciCycles uint64 `json:"sim_deci_cycles,omitempty"`

	// Runtime event counters (deterministic).
	DispatchLoops  uint64 `json:"dispatch_loops,omitempty"`
	BlockChains    uint64 `json:"block_chains,omitempty"`
	HostFaults     uint64 `json:"host_faults,omitempty"`
	GuestFaults    uint64 `json:"guest_faults,omitempty"`
	IRQsDelivered  uint64 `json:"irqs_delivered,omitempty"`
	MMIOEmulations uint64 `json:"mmio_emulations,omitempty"`
	SMCInvals      uint64 `json:"smc_invals,omitempty"`
	TransFlushes   uint64 `json:"trans_flushes,omitempty"`

	// JIT size/shape counters (deterministic).
	JITBlocks      int    `json:"jit_blocks,omitempty"`
	JITGuestInstrs int    `json:"jit_guest_instrs,omitempty"`
	JITDAGNodes    int    `json:"jit_dag_nodes,omitempty"`
	JITLIRInsts    int    `json:"jit_lir_insts,omitempty"`
	JITCodeBytes   int    `json:"jit_code_bytes,omitempty"`
	JITDeadInsts   int    `json:"jit_dead_insts,omitempty"`
	JITSpills      int    `json:"jit_spills,omitempty"`
	CacheFlushes   uint64 `json:"cache_flushes,omitempty"`
	// JITCodeHash is the CRC-32C of every installed block's encoded bytes,
	// in install order. Sum adds the harts' hashes; with truly parallel
	// harts, which hart translates a block follows the host schedule.
	JITCodeHash uint64 `json:"jit_code_hash,omitempty"`

	// Simulated host CPU counters (deterministic).
	HostInsts     uint64 `json:"host_insts,omitempty"`
	HostTLBHits   uint64 `json:"host_tlb_hits,omitempty"`
	HostTLBMisses uint64 `json:"host_tlb_misses,omitempty"`
	HostPageFault uint64 `json:"host_page_faults,omitempty"`
	HostHelpers   uint64 `json:"host_helpers,omitempty"`

	// Wall-clock-derived translation times (host nanoseconds; never part
	// of any baseline comparison).
	DecodeNS    int64 `json:"decode_ns,omitempty"`
	TranslateNS int64 `json:"translate_ns,omitempty"`
	RegallocNS  int64 `json:"regalloc_ns,omitempty"`
	EncodeNS    int64 `json:"encode_ns,omitempty"`
}

// Sum aggregates the per-hart snapshots of one machine into the machine's
// snapshot: every counter adds up across harts, while the engine name and
// the virtual clock, which already covers the whole machine, come from
// hart 0 once.
func Sum(harts ...Snapshot) Snapshot {
	if len(harts) == 0 {
		return Snapshot{}
	}
	sum := harts[0]
	acc := reflect.ValueOf(&sum).Elem()
	for _, h := range harts[1:] {
		v := reflect.ValueOf(h)
		for i := 0; i < acc.NumField(); i++ {
			switch f := acc.Field(i); f.Kind() {
			case reflect.Uint64:
				f.SetUint(f.Uint() + v.Field(i).Uint())
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + v.Field(i).Int())
			}
		}
	}
	sum.VirtualTime = harts[0].VirtualTime
	return sum
}
