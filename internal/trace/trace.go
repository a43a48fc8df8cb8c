// Package trace is the engine introspection layer: a zero-allocation,
// structured event stream emitted by the reference interpreter, the Captive
// DBT and the QEMU-style baseline through one shared vocabulary, so the
// three engines' streams are directly comparable.
//
// Events are stamped with *virtual time* (retired guest instructions plus
// WFI idle-skip) — the engine-independent axis PAPER.md's "two time axes"
// section defines — never with simulated deci-cycles or host wall-clock, so
// a trace of the same program is bit-identical across engines whenever
// their architectural behaviour is.
//
// The hard contract of the package: observation is free when off. A nil
// *Recorder is a valid recorder whose methods are no-ops; recording into
// the preallocated Ring sink allocates nothing; and nothing in this package
// ever charges simulated cycles — tracing can never move the cycle model.
package trace

import "fmt"

// Kind classifies a trace event.
type Kind uint8

// The event vocabulary. All three engines emit the same kinds from the
// semantically equivalent points, which is what makes cross-engine stream
// comparison (difftest's trace-equality lane) possible:
//
//	BlockEnter    a guest basic block begins executing (after any pending
//	              interrupt delivery; never emitted for blocks whose scan
//	              raised an exception)
//	BlockExit     control left a block back to the dispatcher (DBT only —
//	              chained and superblocked execution legitimately elides it)
//	Translate     the DBT translated a block (Addr = generated-code bytes)
//	ChainPatch    a block exit was patched to jump directly to a successor
//	ChainUnpatch  a chain slot was reverted to its dispatcher trap
//	Exception     a guest exception is about to be injected (Arg = kind)
//	IRQ           a guest interrupt is about to be delivered (Arg = line)
//	WFIIdle       WFI skipped idle virtual time (Addr = instructions skipped)
//	MMIO          a device access was emulated (Arg = width | write<<7)
//	SMCInval      a store hit a page holding translations (Addr = page PA)
//	TLBFlush      the guest changed translation state (TLB flush / CR3)
const (
	BlockEnter Kind = iota
	BlockExit
	Translate
	ChainPatch
	ChainUnpatch
	Exception
	IRQ
	WFIIdle
	MMIO
	SMCInval
	TLBFlush
	kindCount
)

var kindNames = [kindCount]string{
	"block-enter", "block-exit", "translate", "chain-patch", "chain-unpatch",
	"exception", "irq", "wfi-idle", "mmio", "smc-inval", "tlb-flush",
}

// String returns the event-kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// KindMask returns the enable bitmask selecting the given kinds.
func KindMask(kinds ...Kind) uint32 {
	var m uint32
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// AllKinds is the enable bitmask selecting every event kind.
const AllKinds = uint32(1<<kindCount) - 1

// ComparableKinds selects the kinds whose ordered streams are identical
// across engines by architectural contract: block entries, interrupt
// deliveries, exception injections and device accesses (every engine emits
// the last through one shared rule, smp.Guest.Device). The remaining kinds
// are engine diagnostics and are excluded from cross-engine equality
// checks: chaining elides block exits, and a store invalidates translations
// (SMC) only on the engines that keep them.
const ComparableKinds = uint32(1<<BlockEnter | 1<<IRQ | 1<<Exception | 1<<MMIO)

// Event is one structured trace record. It is a fixed-size value with no
// pointers so rings of events are a single allocation and sinks can encode
// it without reflection.
type Event struct {
	Kind Kind
	Arg  uint8  // kind-specific: exception kind, IRQ line, MMIO width|write<<7
	Time uint64 // virtual time: retired guest instructions + WFI idle-skip
	PC   uint64 // guest program counter
	Addr uint64 // kind-specific: device PA, fault address, idle-skip amount
}

// LineArg encodes an IRQ event's argument: the timer-line level.
func LineArg(line bool) uint8 {
	if line {
		return 1
	}
	return 0
}

// MMIOArg encodes an MMIO event's argument: the access width, with bit 7
// set for writes.
func MMIOArg(width uint8, write bool) uint8 {
	if write {
		return width | 1<<7
	}
	return width
}

// String renders the event for debug listings and the JSONL sink's tests.
func (ev Event) String() string {
	return fmt.Sprintf("%s t=%d pc=%#x addr=%#x arg=%d", ev.Kind, ev.Time, ev.PC, ev.Addr, ev.Arg)
}

// Sink consumes the event stream. Emit must not retain the event beyond the
// call (it is a value, so ordinary copies are fine).
type Sink interface {
	Emit(ev Event)
	// Close flushes any buffered output. Rings and captures are no-ops.
	Close() error
}

// Recorder filters events by kind and forwards them to a sink. A nil
// *Recorder is valid and records nothing — the engines hold a nil recorder
// by default, so the disabled path is a nil compare per event site.
type Recorder struct {
	mask uint32
	sink Sink
}

// NewRecorder builds a recorder emitting the kinds selected by mask
// (AllKinds, ComparableKinds or KindMask(...)) into sink.
func NewRecorder(sink Sink, mask uint32) *Recorder {
	return &Recorder{mask: mask, sink: sink}
}

// Wants reports whether events of kind k would be recorded. Call sites
// whose event construction is itself costly guard on it; plain sites just
// call Emit.
func (r *Recorder) Wants(k Kind) bool {
	return r != nil && r.mask&(1<<k) != 0
}

// Emit records one event if the recorder is non-nil and the kind enabled.
func (r *Recorder) Emit(k Kind, arg uint8, time, pc, addr uint64) {
	if r == nil || r.mask&(1<<k) == 0 {
		return
	}
	r.sink.Emit(Event{Kind: k, Arg: arg, Time: time, PC: pc, Addr: addr})
}

// Close flushes the underlying sink.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	return r.sink.Close()
}
