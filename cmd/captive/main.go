// Command captive boots a guest image under a chosen execution engine and
// guest architecture and reports console output and run statistics — the
// command-line face of the DBT hypervisor. All three engines (the Captive
// DBT, the QEMU-style baseline and the unified reference interpreter) run
// either ported guest: the engines consume the guest exclusively through
// the port layer, so the matrix below is the paper's retargetability claim
// as a CLI.
//
//	captive -image kernel.bin                       # Captive DBT, GA64
//	captive -image os.bin -guest rv64 -engine qemu  # baseline, RISC-V
//	captive -demo -engine interp                    # golden model demo
//	captive -demo -guest rv64 -smp 4                # 4 vCPUs, truly parallel
//
// The introspection layer (internal/trace) is surfaced through three flags,
// none of which moves the simulated clock:
//
//	captive -demo -trace run.jsonl   # structured event stream (.bin: compact binary)
//	captive -demo -profile 10        # top-10 hot blocks by attributed deci-cycles
//	captive -demo -metrics           # unified metrics snapshot as JSON
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"captive/ga64asm"
	"captive/internal/core"
	"captive/internal/guest/ga64"
	"captive/internal/guest/port"
	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
	"captive/internal/machine"
	"captive/internal/perf"
	"captive/internal/ssa"
	"captive/internal/trace"
)

// observeOpts carries the introspection flags into run.
type observeOpts struct {
	tracePath string // "" = tracing off
	profile   int    // top-N hot blocks to print (0 = off; DBT engines only)
	metrics   bool   // print the unified metrics snapshot as JSON
}

// openTrace builds the recorder for -trace: a JSONL sink, or the compact
// binary sink for .bin paths. All event kinds are enabled. The caller closes
// the returned file after the recorder is closed.
func (o observeOpts) openTrace() (*trace.Recorder, *os.File, error) {
	if o.tracePath == "" {
		return nil, nil, nil
	}
	f, err := os.Create(o.tracePath)
	if err != nil {
		return nil, nil, err
	}
	var sink trace.Sink
	if strings.HasSuffix(o.tracePath, ".bin") {
		sink = trace.NewBinaryWriter(f)
	} else {
		sink = trace.NewJSONLWriter(f)
	}
	return trace.NewRecorder(sink, trace.AllKinds), f, nil
}

func main() {
	imagePath := flag.String("image", "", "raw guest image (loaded at -load, entered at -entry)")
	load := flag.Uint64("load", 0x1000, "guest physical load address")
	entry := flag.Uint64("entry", 0x1000, "guest entry point")
	engine := flag.String("engine", "captive", "execution engine: captive, qemu, interp")
	guest := flag.String("guest", "ga64", "guest architecture: ga64, rv64")
	ram := flag.Int("ram", 64, "guest RAM in MiB")
	opt := flag.Int("opt", 4, "offline optimization level (1..4)")
	demo := flag.Bool("demo", false, "run the bundled demo guest")
	smp := flag.Int("smp", 1, "number of vCPUs (captive runs them truly parallel; qemu and interp use the deterministic scheduler)")
	tracePath := flag.String("trace", "", "write the structured event stream to this file (.jsonl text; .bin compact binary)")
	profile := flag.Int("profile", 0, "print the top-N hot blocks by attributed sim deci-cycles (DBT engines)")
	metricsOut := flag.Bool("metrics", false, "print the unified metrics snapshot as JSON after the run")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "captive:", err)
		os.Exit(1)
	}
	var gp port.Port
	switch *guest {
	case "ga64":
		gp = ga64.Port{}
	case "rv64":
		gp = rv64.Port{}
	default:
		fail(fmt.Errorf("unknown guest %q", *guest))
	}
	kind, err := machine.ParseKind(*engine)
	if err != nil {
		fail(err)
	}
	spec := machine.Spec{
		Kind:           kind,
		Guest:          gp,
		RAMBytes:       *ram << 20,
		CodeCacheBytes: 16 << 20,
		PTPoolBytes:    4 << 20,
		Harts:          *smp,
	}
	if *opt >= 1 && *opt <= 4 {
		spec.Level = ssa.OptLevel(*opt)
	}
	if kind != machine.Captive {
		spec.Quantum = 512 // only Captive runs its harts truly parallel
	}

	var image []byte
	switch {
	case *demo:
		image, err = demoImage(*guest)
	case *imagePath != "":
		image, err = os.ReadFile(*imagePath)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}

	obs := observeOpts{tracePath: *tracePath, profile: *profile, metrics: *metricsOut}
	if err := run(*guest, spec, image, *load, *entry, obs); err != nil {
		fail(err)
	}
}

// run executes the image on the machine spec describes and prints the
// report for the named guest. Every hart enters the image at the same entry point and, on a
// multi-hart machine, dispatches on its hart ID (mhartid / MPIDR). The trace
// recorder and profile observe hart 0; the metrics sum every hart.
func run(guest string, spec machine.Spec, image []byte, load, entry uint64, obs observeOpts) error {
	m, err := machine.New(spec)
	if err != nil {
		return err
	}
	rec, traceFile, err := obs.openTrace()
	if err != nil {
		return err
	}
	m.SetTrace(0, rec)
	if err := m.LoadImage(image, load, entry); err != nil {
		return err
	}
	if err := m.Run(4_000_000_000); err != nil && !errors.Is(err, machine.ErrBudget) {
		return err
	}
	if rec != nil {
		err := rec.Close()
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if out := m.Console(); out != "" {
		fmt.Print(out)
	}
	halted, code := m.Exit()
	title := fmt.Sprintf("%s/%s", guest, spec.Kind)
	if m.N() > 1 {
		title += fmt.Sprintf(" x%d", m.N())
	}
	fmt.Printf("\n--- %s halted=%v exit=%d ---\n", title, halted, code)
	if m.N() > 1 {
		for i := 0; i < m.N(); i++ {
			_, code := m.HartExit(i)
			fmt.Printf("hart %d: %12d guest instructions (exit=%d)\n", i, m.GuestInstrs(i), code)
		}
	}
	ms := m.Metrics()
	fmt.Printf("guest instructions: %d\n", ms.GuestInstrs)
	fmt.Printf("guest exceptions:   %d\n", ms.GuestFaults)
	if secs := perf.Seconds(ms.SimDeciCycles); secs > 0 {
		fmt.Printf("simulated time:     %.6f s (%.1f guest MIPS @ 3.5 GHz host)\n",
			secs, float64(ms.GuestInstrs)/secs/1e6)
		fmt.Printf("blocks translated:  %d (%d bytes of host code)\n", ms.JITBlocks, ms.JITCodeBytes)
	}
	if obs.profile > 0 {
		dbt, ok := m.(*core.SMP)
		if !ok {
			fmt.Println("hot-block profile: only the DBT engines collect one (-engine captive/qemu)")
		} else {
			prof := dbt.VCPU(0).ProfileSnapshot()
			fmt.Printf("hot blocks of hart 0 (top %d of %d, by attributed sim deci-cycles):\n", obs.profile, len(prof))
			for i, bp := range prof {
				if i >= obs.profile {
					break
				}
				fmt.Printf("  %#10x  %12d cycles  %10d runs\n", bp.PC, bp.Cycles, bp.Runs)
			}
		}
	}
	if obs.metrics {
		return printMetricsJSON(ms)
	}
	return nil
}

// printMetricsJSON renders any metrics snapshot to stdout.
func printMetricsJSON(v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// demoImage assembles a small bare-metal guest for the chosen architecture.
func demoImage(guest string) ([]byte, error) {
	if guest == "rv64" {
		// fib(20) into x11, then a clean ecall exit.
		p := rvasm.New(0x1000)
		p.Li(10, 0)
		p.Li(11, 1)
		p.Li(12, 20)
		p.Label("fib")
		p.Add(13, 10, 11)
		p.Mv(10, 11)
		p.Mv(11, 13)
		p.Addi(12, 12, -1)
		p.Bne(12, rvasm.X0, "fib")
		p.Ecall()
		return p.Assemble()
	}
	p := ga64asm.New(0x1000)
	p.MovI(10, ga64asm.UARTBase)
	for _, ch := range "captive-go: hello from the guest\n" {
		p.MovI(11, uint64(ch))
		p.Str32(11, 10, 0)
	}
	// fib(20) in a loop.
	p.MovI(0, 0)
	p.MovI(1, 1)
	p.MovI(2, 20)
	p.Label("fib")
	p.Add(3, 0, 1)
	p.Mov(0, 1)
	p.Mov(1, 3)
	p.SubsI(2, 2, 1)
	p.BCond(ga64asm.CondNE, "fib")
	p.Hlt(0)
	return p.Assemble()
}
