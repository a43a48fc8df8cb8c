package trace

import (
	"bytes"
	"strings"
	"testing"
)

func ev(k Kind, t uint64) Event { return Event{Kind: k, Time: t, PC: 0x1000 + t, Addr: t * 2} }

// TestNilRecorder pins the hard contract: a nil *Recorder is a valid
// recorder whose methods all no-op.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Wants(BlockEnter) {
		t.Error("nil recorder wants events")
	}
	r.Emit(BlockEnter, 0, 1, 2, 3) // must not panic
	if err := r.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// TestRecorderMask checks kind filtering: only enabled kinds reach the sink.
func TestRecorderMask(t *testing.T) {
	cap := &Capture{}
	r := NewRecorder(cap, KindMask(IRQ, Exception))
	if r.Wants(BlockEnter) || !r.Wants(IRQ) || !r.Wants(Exception) {
		t.Fatalf("Wants disagrees with mask")
	}
	r.Emit(BlockEnter, 0, 1, 0x1000, 0)
	r.Emit(IRQ, 1, 2, 0x2000, 0)
	r.Emit(Exception, 3, 4, 0x3000, 0xBEEF)
	if len(cap.Events) != 2 {
		t.Fatalf("captured %d events, want 2", len(cap.Events))
	}
	if cap.Events[0].Kind != IRQ || cap.Events[1].Kind != Exception {
		t.Errorf("wrong events captured: %v", cap.Events)
	}
	if cap.Events[1].Arg != 3 || cap.Events[1].Addr != 0xBEEF {
		t.Errorf("event fields lost: %+v", cap.Events[1])
	}
}

// TestComparableKinds pins the cross-engine comparable set; difftest's trace
// lane depends on exactly these four kinds being architecturally ordered.
func TestComparableKinds(t *testing.T) {
	want := KindMask(BlockEnter, IRQ, Exception, MMIO)
	if ComparableKinds != want {
		t.Errorf("ComparableKinds = %#x, want %#x", ComparableKinds, want)
	}
	if AllKinds&ComparableKinds != ComparableKinds {
		t.Error("ComparableKinds not a subset of AllKinds")
	}
}

// TestRingWraparound checks the ring retains exactly the last cap events in
// order once it wraps.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	if r.Len() != 0 {
		t.Fatalf("fresh ring Len = %d", r.Len())
	}
	for i := uint64(0); i < 3; i++ {
		r.Emit(ev(BlockEnter, i))
	}
	if r.Len() != 3 || len(r.Events()) != 3 || r.Events()[0].Time != 0 {
		t.Fatalf("pre-wrap ring wrong: len=%d events=%v", r.Len(), r.Events())
	}
	for i := uint64(3); i < 10; i++ {
		r.Emit(ev(BlockEnter, i))
	}
	got := r.Events()
	if r.Len() != 4 || len(got) != 4 {
		t.Fatalf("post-wrap Len = %d, events = %d, want 4", r.Len(), len(got))
	}
	for i, e := range got {
		if e.Time != uint64(6+i) {
			t.Errorf("event %d: time %d, want %d (oldest-first)", i, e.Time, 6+i)
		}
	}
}

// TestRingEmitAllocFree is the sink half of the zero-allocation contract:
// recording into a preallocated ring allocates nothing.
func TestRingEmitAllocFree(t *testing.T) {
	r := NewRing(128)
	rec := NewRecorder(r, AllKinds)
	allocs := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 64; i++ {
			rec.Emit(BlockEnter, 0, i, 0x1000, 0)
		}
	})
	if allocs != 0 {
		t.Errorf("ring Emit allocates %.1f times per run, want 0", allocs)
	}
}

// TestJSONLFormat checks the text export: one object per line with the
// documented fields.
func TestJSONLFormat(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.Emit(Event{Kind: MMIO, Arg: 4 | 1<<7, Time: 42, PC: 0x1008, Addr: 0x1000_0000})
	w.Emit(Event{Kind: WFIIdle, Time: 100, PC: 0x2000, Addr: 5000})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2: %q", len(lines), buf.String())
	}
	want := `{"kind":"mmio","time":42,"pc":"0x1008","addr":"0x10000000","arg":132}`
	if lines[0] != want {
		t.Errorf("line 0 = %s, want %s", lines[0], want)
	}
	if !strings.Contains(lines[1], `"kind":"wfi-idle"`) {
		t.Errorf("line 1 = %s, want wfi-idle", lines[1])
	}
}

// TestBinaryRoundTrip checks the compact export decodes back bit-identical.
func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	in := []Event{
		{Kind: BlockEnter, Time: 1, PC: 0x1000},
		{Kind: Exception, Arg: 7, Time: 2, PC: 0x2000, Addr: 0xDEAD},
		{Kind: TLBFlush, Time: 1 << 60, PC: ^uint64(0), Addr: 1},
	}
	for _, e := range in {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(in)*binaryRecordLen {
		t.Fatalf("wrote %d bytes, want %d", buf.Len(), len(in)*binaryRecordLen)
	}
	out, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("event %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

// TestKindNames checks every kind has a distinct printable name (the JSONL
// sink embeds them unquoted).
func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < kindCount; k++ {
		n := k.String()
		if n == "" || strings.HasPrefix(n, "kind") || seen[n] {
			t.Errorf("kind %d: bad or duplicate name %q", k, n)
		}
		seen[n] = true
	}
}
