package difftest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"captive/internal/guest/ga64"
	"captive/internal/guest/port"
	"captive/internal/guest/rv64"
	"captive/internal/machine"
	"captive/internal/metrics"
	"captive/internal/ssa"
	"captive/internal/trace"
)

// EngineID names one engine/optimization-level configuration under test.
type EngineID struct {
	Kind  machine.Kind
	Level ssa.OptLevel
}

func (id EngineID) String() string { return fmt.Sprintf("%s/O%d", id.Kind, id.Level) }

// Golden is the reference configuration every other run is compared to.
var Golden = EngineID{Kind: machine.Interp, Level: ssa.O4}

// Configs returns the engine matrix every lane runs: the interpreter at O1
// (offline-optimizer differential inside one engine), the Captive DBT at
// every offline level, and the QEMU-style baseline at O4.
func Configs() []EngineID {
	return []EngineID{
		{Kind: machine.Interp, Level: ssa.O1},
		{Kind: machine.Captive, Level: ssa.O1},
		{Kind: machine.Captive, Level: ssa.O2},
		{Kind: machine.Captive, Level: ssa.O3},
		{Kind: machine.Captive, Level: ssa.O4},
		{Kind: machine.QEMU, Level: ssa.O4},
	}
}

// State is the engine-independent architectural state extracted after a run.
// Two engines executed a program identically iff their States are equal.
type State struct {
	Regs     []byte   // register file below the PC slot: X, VL, VH, NZCV
	Data     []byte   // the probed data windows
	CSRs     []uint64 // system-register snapshot (lanes with a Snapshot; nil otherwise)
	Instrs   uint64   // retired guest instructions
	ExitCode uint64
	RV64     bool // state from an RV64 lane (register naming in Diff)
}

// Equal reports whether two states are bit-identical.
func (s State) Equal(o State) bool {
	if len(s.CSRs) != len(o.CSRs) {
		return false
	}
	for i := range s.CSRs {
		if s.CSRs[i] != o.CSRs[i] {
			return false
		}
	}
	return s.Instrs == o.Instrs && s.ExitCode == o.ExitCode &&
		bytes.Equal(s.Regs, o.Regs) && bytes.Equal(s.Data, o.Data)
}

// Diff describes the first difference between two states ("" when equal).
func (s State) Diff(o State) string {
	var sb strings.Builder
	if s.ExitCode != o.ExitCode {
		fmt.Fprintf(&sb, "exit code %#x vs %#x; ", s.ExitCode, o.ExitCode)
	}
	if s.Instrs != o.Instrs {
		fmt.Fprintf(&sb, "instr count %d vs %d; ", s.Instrs, o.Instrs)
	}
	nzcv := regLayoutNZCV(s.RV64)
	name := regName
	if s.RV64 {
		name = func(off int) string { return fmt.Sprintf("x%d", off/8) }
	}
	for i := 0; i+8 <= nzcv && i+8 <= len(s.Regs) && i+8 <= len(o.Regs); i += 8 {
		a := binary.LittleEndian.Uint64(s.Regs[i:])
		b := binary.LittleEndian.Uint64(o.Regs[i:])
		if a != b {
			fmt.Fprintf(&sb, "%s=%#x vs %#x; ", name(i), a, b)
		}
	}
	if len(s.Regs) > nzcv && len(o.Regs) > nzcv && s.Regs[nzcv] != o.Regs[nzcv] {
		fmt.Fprintf(&sb, "NZCV=%04b vs %04b; ", s.Regs[nzcv], o.Regs[nzcv])
	}
	for i := range s.Data {
		if i < len(o.Data) && s.Data[i] != o.Data[i] {
			fmt.Fprintf(&sb, "mem[probe+%#x]=%#x vs %#x; ", i, s.Data[i], o.Data[i])
			break
		}
	}
	for i := range s.CSRs {
		if i < len(o.CSRs) && s.CSRs[i] != o.CSRs[i] {
			fmt.Fprintf(&sb, "%s=%#x vs %#x; ", rvsysCSRName(i), s.CSRs[i], o.CSRs[i])
		}
	}
	return strings.TrimSuffix(sb.String(), "; ")
}

// layout holds the GA64 register-file bank offsets, taken from the built
// module so diff reporting can never drift from the layout gen.Build
// actually computed.
type layout struct {
	x, vl, vh, nzcv int
}

var (
	layoutOnce sync.Once
	layoutVal  layout
)

func regLayout() layout {
	layoutOnce.Do(func() {
		reg := ga64.MustModule().Registry
		layoutVal = layout{
			x:    reg.Bank("X").Offset,
			vl:   reg.Bank("VL").Offset,
			vh:   reg.Bank("VH").Offset,
			nzcv: reg.Bank("NZCV").Offset,
		}
	})
	return layoutVal
}

// regLayoutNZCV returns the flags-byte offset for the lane's register file.
func regLayoutNZCV(rv bool) int {
	if rv {
		return rv64NZCVOff()
	}
	return regLayout().nzcv
}

// regName maps a register-file byte offset to a friendly name.
func regName(off int) string {
	l := regLayout()
	switch {
	case off >= l.nzcv:
		return "NZCV"
	case off >= l.vh:
		return fmt.Sprintf("VH%d", (off-l.vh)/8)
	case off >= l.vl:
		return fmt.Sprintf("VL%d", (off-l.vl)/8)
	default:
		return fmt.Sprintf("X%d", (off-l.x)/8)
	}
}

// stepBudget bounds every run, in machine steps (the DBT engines get the
// equivalent simulated-time bound). Generated programs are short and always
// halt; the budget only catches harness or model bugs.
const stepBudget = 2_000_000

// Seed is one committed regression seed (the corpus entries in corpus.go).
type Seed = struct {
	Seed int64
	Ops  int
}

// Sweep fixes a lane's sweep: Seeds fresh seeds from Base (Short under
// -short), seed Base+i generated with 40+(i%5)*OpsStep constructs.
type Sweep struct {
	Seeds, Short int
	Base         int64
	OpsStep      int
}

// Lane is one differential-testing lane: a seeded program generator plus
// what the harness runs and compares for it. Every lane runs the same engine
// matrix (Configs) against the same golden configuration through one Run,
// one Check and one Minimize.
type Lane struct {
	Name     string
	RV64     bool // RV64 guest (GA64 otherwise)
	Harts    int  // hart count (0: uniprocessor); N > 1 runs the deterministic scheduler
	Generate func(seed int64, ops int) (*Program, error)
	// Windows are the probed guest-physical ranges [start, end), compared
	// byte for byte (concatenated into hart 0's State.Data).
	Windows [][2]uint64
	// Snapshot extracts the compared system registers of a hart (nil: none).
	Snapshot func(port.Sys) []uint64
	// Filter restricts which reduced candidates the minimizer accepts,
	// given their golden outcome (nil: any candidate that halts).
	Filter func(golden Outcome) bool
	// Assert is an extra per-configuration check on a run that matched the
	// golden state (nil: none).
	Assert func(id EngineID, o Outcome) error
	Corpus []Seed
	Sweep  Sweep
	// Trace attaches a recorder for the comparable event kinds to hart 0:
	// Check then also requires identical event streams and an unperturbed
	// golden run.
	Trace bool
}

// Traced returns the lane with tracing on.
func (l *Lane) Traced() *Lane {
	t := *l
	t.Name += "+trace"
	t.Trace = true
	return &t
}

func (l *Lane) port() port.Port {
	if l.RV64 {
		return rv64.Port{}
	}
	return ga64.Port{}
}

// Outcome is one run of a lane program on one engine configuration.
type Outcome struct {
	Harts   []State          // per hart; hart 0 carries the probed windows
	Console string           // everything the guest wrote to its UART
	Metrics metrics.Snapshot // summed over harts
	Events  []trace.Event    // hart 0's comparable events (traced lanes)
}

// counterNames names the delivery counters Outcome compares, in the order
// counters returns them.
var counterNames = [...]string{"guest faults", "IRQs delivered", "MMIO emulations", "virtual time"}

// counters returns the summed delivery counters every engine keeps through
// the shared guest rules (smp.Guest) and the virtual clock they ran to.
func (o Outcome) counters() [len(counterNames)]uint64 {
	m := o.Metrics
	return [...]uint64{m.GuestFaults, m.IRQsDelivered, m.MMIOEmulations, m.VirtualTime}
}

// Equal reports whether two outcomes are bit-identical hart for hart, wrote
// the same console output and agree on the delivery counters.
func (o Outcome) Equal(p Outcome) bool {
	if len(o.Harts) != len(p.Harts) || o.Console != p.Console || o.counters() != p.counters() {
		return false
	}
	for i := range o.Harts {
		if !o.Harts[i].Equal(p.Harts[i]) {
			return false
		}
	}
	return true
}

// Diff describes the first per-hart difference, then any console or
// delivery-counter difference ("" when equal).
func (o Outcome) Diff(p Outcome) string {
	if len(o.Harts) != len(p.Harts) {
		return fmt.Sprintf("%d harts vs %d", len(o.Harts), len(p.Harts))
	}
	for i := range o.Harts {
		if d := o.Harts[i].Diff(p.Harts[i]); d != "" {
			if len(o.Harts) > 1 {
				d = fmt.Sprintf("hart %d: %s", i, d)
			}
			return d
		}
	}
	if o.Console != p.Console {
		return fmt.Sprintf("console %q vs %q", o.Console, p.Console)
	}
	oc, pc := o.counters(), p.counters()
	for i, name := range counterNames {
		if oc[i] != pc[i] {
			return fmt.Sprintf("%s %d vs %d", name, oc[i], pc[i])
		}
	}
	return ""
}

// Run executes a lane program on one engine configuration: the handler (if
// any) at HandlerBase, the image at Org, every hart entering at Org.
func (l *Lane) Run(p *Program, id EngineID) (Outcome, error) {
	m, err := machine.New(machine.Spec{
		Kind: id.Kind, Guest: l.port(), Level: id.Level,
		RAMBytes: RAMBytes, CodeCacheBytes: 4 << 20, PTPoolBytes: 2 << 20,
		Harts: l.Harts, Quantum: SMPQuantum,
	})
	if err != nil {
		return Outcome{}, err
	}
	var events trace.Capture
	if l.Trace {
		m.SetTrace(0, trace.NewRecorder(&events, trace.ComparableKinds))
	}
	if p.Handler != nil {
		if err := m.LoadData(p.Handler, HandlerBase); err != nil {
			return Outcome{}, err
		}
	}
	if err := m.LoadImage(p.Image, Org, Org); err != nil {
		return Outcome{}, err
	}
	if err := m.Run(stepBudget); err != nil {
		return Outcome{}, fmt.Errorf("%s: %w", id, err)
	}
	o := Outcome{Console: m.Console(), Metrics: m.Metrics(), Events: events.Events}
	for i := 0; i < m.N(); i++ {
		h := m.Hart(i)
		if !h.Halted {
			return Outcome{}, fmt.Errorf("%s: hart %d did not halt", id, i)
		}
		st := State{RV64: l.RV64, Regs: h.RegState(), Instrs: m.GuestInstrs(i), ExitCode: h.ExitCode}
		if l.Snapshot != nil {
			st.CSRs = l.Snapshot(h.Sys)
		}
		o.Harts = append(o.Harts, st)
	}
	for _, w := range l.Windows {
		buf := make([]byte, w[1]-w[0])
		if err := m.ReadRAM(w[0], buf); err != nil {
			return Outcome{}, err
		}
		o.Harts[0].Data = append(o.Harts[0].Data, buf...)
	}
	return o, nil
}

// Check generates the lane's program for a seed, runs it through the engine
// matrix and compares every configuration against the golden interpreter. A
// divergent configuration is reported as a *Mismatch, unminimized: its
// Minimize reduces the program.
func (l *Lane) Check(seed int64, ops int) error {
	p, err := l.Generate(seed, ops)
	if err != nil {
		return fmt.Errorf("difftest: %s seed %d: generate: %w", l.Name, seed, err)
	}
	golden, err := l.Run(p, Golden)
	if err != nil {
		return fmt.Errorf("difftest: %s seed %d: golden run: %w", l.Name, seed, err)
	}
	if l.Trace {
		// Observation must not perturb: the traced golden run ends exactly
		// where the untraced one does.
		untraced := *l
		untraced.Trace = false
		plain, err := untraced.Run(p, Golden)
		if err != nil {
			return fmt.Errorf("difftest: %s seed %d: untraced golden run: %w", l.Name, seed, err)
		}
		if !golden.Equal(plain) {
			return fmt.Errorf("difftest: %s seed %d: tracing perturbed the golden run: %s", l.Name, seed, plain.Diff(golden))
		}
	}
	for _, id := range Configs() {
		o, err := l.Run(p, id)
		if err != nil {
			return fmt.Errorf("difftest: %s seed %d: %w", l.Name, seed, err)
		}
		if !o.Equal(golden) {
			return &Mismatch{Seed: seed, ID: id, Detail: golden.Diff(o), RV64: l.RV64, lane: l, prog: p}
		}
		if l.Trace {
			if d := DiffEvents(golden.Events, o.Events); d != "" {
				return fmt.Errorf("difftest: %s seed %d: %s event stream diverges from %s: %s", l.Name, seed, id, Golden, d)
			}
		}
		if l.Assert != nil {
			if err := l.Assert(id, o); err != nil {
				return fmt.Errorf("difftest: %s seed %d: %s: %w", l.Name, seed, id, err)
			}
		}
	}
	return nil
}

// Minimize shrinks a failing program by replacing instruction words with the
// guest's NOP while the divergence against the golden interpreter persists.
// Replacing (rather than deleting) preserves branch displacements, so every
// intermediate candidate remains a well-formed program. Candidates must
// still halt on the golden model and pass the lane's Filter.
func (l *Lane) Minimize(p *Program, id EngineID) []uint32 {
	words := make([]uint32, len(p.Image)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(p.Image[4*i:])
	}
	stillFails := func(ws []uint32) bool {
		img := make([]byte, 4*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint32(img[4*i:], w)
		}
		cand := &Program{Seed: p.Seed, Image: img, Handler: p.Handler}
		g, err := l.Run(cand, Golden)
		if err != nil || (l.Filter != nil && !l.Filter(g)) {
			return false
		}
		o, err := l.Run(cand, id)
		return err == nil && !o.Equal(g)
	}
	return minimizeWords(words, nopWord(l.RV64), stillFails)
}

// Mismatch describes a differential failure and, once minimized, its
// minimized reproducer.
type Mismatch struct {
	Seed      int64
	ID        EngineID
	Detail    string
	Minimized []uint32 // minimized instruction words of the main image (nil: not minimized)
	RV64      bool     // failure from an RV64 lane

	lane *Lane
	prog *Program
}

// Minimize reduces the failing program (Lane.Minimize) into Minimized.
func (m *Mismatch) Minimize() { m.Minimized = m.lane.Minimize(m.prog, m.ID) }

// Error implements error.
func (m *Mismatch) Error() string {
	arch, nop := "ga64", nopWord(m.RV64)
	if m.RV64 {
		arch = "rv64"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "difftest: %s seed %d: %s diverges from %s: %s\n", arch, m.Seed, m.ID, Golden, m.Detail)
	if m.Minimized == nil {
		sb.WriteString("program not minimized\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "minimized program (%d live words):\n", countLive(m.Minimized, nop))
	for i, w := range m.Minimized {
		if w == nop {
			continue
		}
		fmt.Fprintf(&sb, "  %#06x: %#08x\n", Org+4*i, w)
	}
	return sb.String()
}

// nopWord is the minimizer's replacement word: GA64 nop, or RV64 addi x0,
// x0, 0.
func nopWord(rv bool) uint32 {
	if rv {
		return rvNopWord
	}
	return ga64.EncS(ga64.OpNop, 0, 0, 0)
}

func countLive(words []uint32, nop uint32) int {
	n := 0
	for _, w := range words {
		if w != nop {
			n++
		}
	}
	return n
}

// minimizeWords is the reduction core: greedily replace words with the
// NOP while the predicate keeps reporting failure, looping to a fixpoint.
// A program that does not fail is returned unchanged.
func minimizeWords(words []uint32, nop uint32, stillFails func([]uint32) bool) []uint32 {
	if !stillFails(words) {
		return words // not reproducible under re-run; return unreduced
	}
	for changed := true; changed; {
		changed = false
		for i := range words {
			if words[i] == nop {
				continue
			}
			save := words[i]
			words[i] = nop
			if stillFails(words) {
				changed = true
			} else {
				words[i] = save
			}
		}
	}
	return words
}
