package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"captive/internal/gen"
	"captive/internal/ssa"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// buildFor builds a model's module the way main does.
func buildFor(t *testing.T, model string, level ssa.OptLevel) *gen.Module {
	t.Helper()
	build, ok := models[model]
	if !ok {
		t.Fatalf("unknown model %q", model)
	}
	m, err := build(level)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func dump(t *testing.T, m *gen.Module, instr string) string {
	t.Helper()
	for _, in := range m.Instrs {
		if in.Name == instr {
			return in.Action.String()
		}
	}
	t.Fatalf("no instruction %q in model", instr)
	return ""
}

// TestDumpGolden pins the -dump output (the paper's Fig. 4/Fig. 6 textual
// SSA form) for one GA64 and one RV64 instruction at O4. Offline-optimizer
// changes surface here as a reviewable golden diff; regenerate with
//
//	go test ./cmd/gensim -update
func TestDumpGolden(t *testing.T) {
	cases := []struct {
		model, instr, file string
	}{
		{"ga64", "adds_reg", "ga64_adds_reg_O4.golden"},
		{"rv64", "beq", "rv64_beq_O4.golden"},
		// The system-level retarget surface: a read/modify/write CSR
		// behaviour (read_sys ordered before the conditional write_sys,
		// with the pre-write value flowing to rd across the join — the
		// shape that exposed the phi-analysis forwarding bug), the
		// immediate form, and the trap returns lowering to eret.
		{"rv64", "csrrw", "rv64_csrrw_O4.golden"},
		{"rv64", "csrrs", "rv64_csrrs_O4.golden"},
		{"rv64", "csrrwi", "rv64_csrrwi_O4.golden"},
		{"rv64", "mret", "rv64_mret_O4.golden"},
		{"rv64", "sret", "rv64_sret_O4.golden"},
	}
	for _, c := range cases {
		m := buildFor(t, c.model, ssa.O4)
		got := dump(t, m, c.instr)
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", c.file, err)
		}
		if got != string(want) {
			t.Errorf("%s/%s O4 SSA dump changed.\n--- got ---\n%s--- want ---\n%s"+
				"(intentional optimizer change? regenerate with `go test ./cmd/gensim -update`)",
				c.model, c.instr, got, want)
		}
	}
}

// TestDumpAllLevelsBuild makes sure every instruction of both bundled
// models dumps cleanly at every optimization level (the tool must never
// panic on a model it ships).
func TestDumpAllLevelsBuild(t *testing.T) {
	for _, model := range []string{"ga64", "rv64"} {
		for _, level := range []ssa.OptLevel{ssa.O1, ssa.O2, ssa.O3, ssa.O4} {
			m := buildFor(t, model, level)
			for _, in := range m.Instrs {
				if s := in.Action.String(); s == "" {
					t.Errorf("%s/%s at O%d: empty dump", model, in.Name, level)
				}
			}
		}
	}
}
