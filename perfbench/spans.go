package main

// The traced run: one span (name, start, end, parent) around each public
// call, carrying the Metrics() deltas of the call (or, for the construction
// calls that precede any engine, the heap they allocated). Spans are kept in
// memory and written out at exit; the per-layer metrics are computed from
// them.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // -1 for a root span
	Name    string           `json:"name"`
	Program string           `json:"program,omitempty"`
	Engine  string           `json:"engine,omitempty"`
	Start   int64            `json:"start_ns"`
	End     int64            `json:"end_ns"`
	Delta   map[string]int64 `json:"delta,omitempty"`

	heap0 uint64 // heap bytes allocated before the call (endHeap)
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans; a nil tracer records nothing, so untraced code paths
// pay one nil compare per call.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name, program, engine string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Program: program, Engine: engine, heap0: heapAllocs()})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.epoch))
	return id
}

// end closes span id with the given deltas.
func (t *tracer) end(id int, delta map[string]int64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	s.Delta = delta
	t.open = t.open[:len(t.open)-1]
}

// endHeap closes span id recording the heap bytes the call allocated.
func (t *tracer) endHeap(id int) {
	if t == nil {
		return
	}
	t.end(id, map[string]int64{"heap_alloc_bytes": int64(heapAllocs() - t.spans[id].heap0)})
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative count of heap bytes allocated.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// layerMetrics computes the per-layer metrics from the traced rounds' spans.
// Times and counts are per round (one pass over the workload's programs on
// each engine); every ratio is reported next to its base count.
func layerMetrics(t *tracer, rounds int, overhead float64) []metric {
	type agg struct {
		run   time.Duration
		delta map[string]int64
	}
	perEngine := map[string]*agg{}
	var modules, hvmNew, coreNew time.Duration
	var hvmHeap, coreHeap int64
	var nHVM, nCore int
	for i := range t.spans {
		s := &t.spans[i]
		switch s.Name {
		case "ga64.NewModule", "rv64.NewModule":
			modules += s.dur()
		case "hvm.New":
			hvmNew += s.dur()
			hvmHeap += s.Delta["heap_alloc_bytes"]
			nHVM++
		case "core.New", "core.NewQEMU", "core.NewSMP", "core.NewSMPQEMU":
			coreNew += s.dur()
			coreHeap += s.Delta["heap_alloc_bytes"]
			nCore++
		case "Run", "RunParallel", "RunDet":
			a := perEngine[s.Engine]
			if a == nil {
				a = &agg{delta: map[string]int64{}}
				perEngine[s.Engine] = a
			}
			a.run += s.dur()
			for k, v := range s.Delta {
				a.delta[k] += v
			}
		}
	}
	r := float64(rounds)
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	per := func(n int) float64 { return float64(max(n, 1)) }
	out := []metric{
		{"gen.module_ms", ms(modules), "ms"},
		{"hvm.new_ms", ms(hvmNew) / per(nHVM), "ms"},
		{"hvm.heap_mib", float64(hvmHeap) / per(nHVM) / (1 << 20), "MiB"},
		{"core.new_ms", ms(coreNew) / per(nCore), "ms"},
		{"core.heap_mib", float64(coreHeap) / per(nCore) / (1 << 20), "MiB"},
		{"trace.overhead_pct", overhead * 100, "%"},
	}
	for _, eng := range engines {
		a := perEngine[eng]
		if a == nil {
			a = &agg{delta: map[string]int64{}}
		}
		d := func(k string) float64 { return float64(a.delta[k]) / r }
		ratio := func(n, base float64) float64 {
			if base == 0 {
				return 0
			}
			return n / base
		}
		jit := float64(a.delta["decode_ns"]+a.delta["translate_ns"]+a.delta["regalloc_ns"]+a.delta["encode_ns"]) / 1e6 / r
		run := ms(a.run) / r
		exec := run - jit
		instrs, blocks, disp := d("guest_instrs"), d("jit_blocks"), d("dispatch_loops")
		hits, misses := d("host_tlb_hits"), d("host_tlb_misses")
		host := d("host_insts")
		p := eng + "."
		out = append(out,
			metric{p + "guest_instrs", instrs, "count"},
			metric{p + "jit_ms", jit, "ms"},
			metric{p + "jit_share", ratio(jit, run), "ratio"},
			metric{p + "jit_blocks", blocks, "count"},
			metric{p + "jit_us_per_block", ratio(jit*1e3, blocks), "us"},
			metric{p + "jit_guest_instrs", d("jit_guest_instrs"), "count"},
			metric{p + "jit_lir_per_instr", ratio(d("jit_lir_insts"), d("jit_guest_instrs")), "ratio"},
			metric{p + "jit_code_bytes", d("jit_code_bytes"), "bytes"},
			metric{p + "jit_spills", d("jit_spills"), "count"},
			metric{p + "run_ms", run, "ms"},
			metric{p + "exec_ms", exec, "ms"},
			metric{p + "host_insts", host, "count"},
			metric{p + "exec_ns_per_host_inst", ratio(exec*1e6, host), "ns"},
			metric{p + "host_insts_per_instr", ratio(host, instrs), "ratio"},
			metric{p + "tlb_lookups", hits + misses, "count"},
			metric{p + "tlb_miss_ratio", ratio(misses, hits+misses), "ratio"},
			metric{p + "dispatches", disp, "count"},
			metric{p + "dispatch_per_kinstr", ratio(disp*1e3, instrs), "1/kinstr"},
			metric{p + "cache_hit_ratio", cacheHitRatio(blocks, disp), "ratio"},
			metric{p + "chains", d("block_chains"), "count"},
			metric{p + "cache_flushes", d("cache_flushes"), "count"},
			metric{p + "trans_flushes", d("trans_flushes"), "count"},
			metric{p + "smc_invals", d("smc_invals"), "count"},
			metric{p + "host_faults", d("host_faults"), "count"},
			metric{p + "host_faults_per_kinstr", ratio(d("host_faults")*1e3, instrs), "1/kinstr"},
			metric{p + "guest_faults", d("guest_faults"), "count"},
			metric{p + "irqs", d("irqs_delivered"), "count"},
			metric{p + "mmio", d("mmio_emulations"), "count"},
		)
	}
	return out
}

// cacheHitRatio is the share of dispatcher lookups served by an existing
// translation: 1 − blocks translated / dispatches.
func cacheHitRatio(blocks, dispatches float64) float64 {
	if dispatches == 0 {
		return 0
	}
	return 1 - blocks/dispatches
}
