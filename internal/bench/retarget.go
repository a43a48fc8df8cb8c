package bench

// Table 5-style retarget figure (§3.3): the paper demonstrates
// retargetability by running non-ARM guests generated from the ADL through
// the same DBT. Here the RV64 port supplies the second guest: loop kernels
// assembled with the RV64 assembler run on the Captive engine and the
// QEMU-style baseline — the identical engines the GA64 figures measure —
// and the figure reports per-workload Captive-vs-QEMU speedup next to them.

import (
	"fmt"

	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
	"captive/internal/machine"
	"captive/internal/perf"
)

// RVWorkload is one RV64 benchmark kernel.
type RVWorkload struct {
	Name  string
	Build func() *rvasm.Program
}

// RVWorkloads returns the RV64 kernel set: the factorial/loop kernel of the
// retarget example scaled up, a memory-walking kernel, a call-heavy kernel
// (block chaining and the dispatcher under indirect returns), and an
// MMU-on supervisor kernel — guest paging and trap round-trips in the hot
// path, the host-MMU fast path against the inline softmmu.
func RVWorkloads() []RVWorkload {
	return []RVWorkload{
		{"rv64.factorial", rvFactorialKernel},
		{"rv64.memsum", rvMemsumKernel},
		{"rv64.calls", rvCallKernel},
		{"rv64.vmsum", rvVMSumKernel},
	}
}

// rvFactorialKernel recomputes 20! (mod 2^64) 20,000 times — the example's
// kernel scaled up; tight mul/branch traffic.
func rvFactorialKernel() *rvasm.Program {
	p := rvasm.New(0x1000)
	p.Li(20, 20_000) // outer repetitions
	p.Li(11, 0)      // checksum accumulator
	p.Label("outer")
	p.Li(10, 20) // n
	p.Li(12, 1)  // acc
	p.Label("loop")
	p.Mul(12, 12, 10)
	p.Addi(10, 10, -1)
	p.Bne(10, rvasm.X0, "loop")
	p.Add(11, 11, 12)
	p.Addi(20, 20, -1)
	p.Bne(20, rvasm.X0, "outer")
	p.Ecall()
	return p
}

// rvMemsumKernel walks a 4 KiB array read-modify-write for 2,000 passes —
// load/store traffic through the host-MMU fast path vs the inline softmmu.
func rvMemsumKernel() *rvasm.Program {
	p := rvasm.New(0x1000)
	p.Li(5, 0x200000) // array base
	p.Li(20, 2_000)   // passes
	p.Li(11, 0)       // checksum
	p.Label("pass")
	p.Li(6, 512) // 512 8-byte slots
	p.Mv(7, 5)
	p.Label("elem")
	p.Ld(8, 7, 0)
	p.Add(8, 8, 6) // mutate with the loop counter
	p.Sd(8, 7, 0)
	p.Add(11, 11, 8)
	p.Addi(7, 7, 8)
	p.Addi(6, 6, -1)
	p.Bne(6, rvasm.X0, "elem")
	p.Addi(20, 20, -1)
	p.Bne(20, rvasm.X0, "pass")
	p.Ecall()
	return p
}

// rvCallKernel makes 40,000 calls through jal/jalr — every return is an
// indirect branch, which the baseline cannot chain (TCG's goto_tb contrast).
func rvCallKernel() *rvasm.Program {
	p := rvasm.New(0x1000)
	p.Li(20, 40_000)
	p.Li(11, 0)
	p.Label("loop")
	p.Jal(rvasm.RA, "leaf")
	p.Add(11, 11, 10)
	p.Addi(20, 20, -1)
	p.Bne(20, rvasm.X0, "loop")
	p.Ecall()
	p.Label("leaf")
	p.Xor(10, 20, 11)
	p.Ret()
	return p
}

// rvVMSumKernel is the Table 5 MMU-on figure: an M-mode boot builds sv39
// tables (identity RWX code megapage, RW data megapage), enables paging and
// drops to S-mode, where the memsum loop runs under guest translation with
// a trap round-trip to M every pass — Captive serves the loop from
// demand-populated host page tables while the baseline pays the inline
// softmmu on every access, and both pay their translation-flush policy on
// each privilege switch.
func rvVMSumKernel() *rvasm.Program {
	const root, l1 = 0x700000, 0x701000
	pte := func(pa, bits uint64) uint64 { return pa>>12<<10 | bits }
	leaf := uint64(rv64.PTEV | rv64.PTEA | rv64.PTED)
	p := rvasm.New(0x1000)
	st := func(addr, v uint64) {
		p.Li(6, v)
		p.Li(7, addr)
		p.Sd(6, 7, 0)
	}
	st(root, pte(l1, rv64.PTEV))
	st(l1, pte(0, leaf|rv64.PTER|rv64.PTEW|rv64.PTEX))
	st(l1+8, pte(0x200000, leaf|rv64.PTER|rv64.PTEW))
	p.La(6, "mtrap")
	p.Csrw(rv64.CSRMtvec, 6)
	p.Li(6, rv64.SatpModeSv39<<60|root>>12)
	p.Csrw(rv64.CSRSatp, 6)
	p.SfenceVma()
	p.Li(6, rv64.PrivS<<rv64.MstatusMPPShift)
	p.Csrw(rv64.CSRMstatus, 6)
	p.La(6, "super")
	p.Csrw(rv64.CSRMepc, 6)
	p.Mret()

	p.Label("super") // S-mode, translation on
	p.Li(5, 0x200000)
	p.Li(20, 200) // passes (each ends in an ecall round-trip to M)
	p.Li(11, 0)
	p.Label("pass")
	p.Li(6, 512)
	p.Mv(7, 5)
	p.Label("elem")
	p.Ld(8, 7, 0)
	p.Add(8, 8, 6)
	p.Sd(8, 7, 0)
	p.Add(11, 11, 8)
	p.Addi(7, 7, 8)
	p.Addi(6, 6, -1)
	p.Bne(6, rvasm.X0, "elem")
	p.Ecall() // supervisor yield: trap to M, skip, mret back
	p.Addi(20, 20, -1)
	p.Bne(20, rvasm.X0, "pass")
	p.Li(21, 1)
	p.Ecall() // x21 != 0: the M handler clears mtvec and exits

	p.Label("mtrap")
	p.Bne(21, rvasm.X0, "mexit")
	p.Csrr(23, rv64.CSRMepc)
	p.Addi(23, 23, 4)
	p.Csrw(rv64.CSRMepc, 23)
	p.Mret()
	p.Label("mexit")
	p.Csrw(rv64.CSRMtvec, rvasm.X0)
	p.Ecall()
	return p
}

// runRV64 runs an RV64 kernel, entered at its origin (KernelBase, like
// every kernel of this package), on the machine s describes and requires a
// clean exit; the checksum is x11.
func runRV64(s machine.Spec, p *rvasm.Program, name string) (Result, error) {
	img, err := p.Assemble()
	if err != nil {
		return Result{}, err
	}
	res, err := runImage(s, Image{Kernel: img, Entry: p.Org()}, name, 11)
	if err == nil && res.ExitCode != 0 {
		err = fmt.Errorf("bench %s/%s: no clean exit (code %#x)", name, s.Kind, res.ExitCode)
	}
	return res, err
}

// RunRV64Workload executes an RV64 kernel on the chosen engine through
// rv64.Port.
func RunRV64Workload(kind machine.Kind, w RVWorkload) (Result, error) {
	return runRV64(spec(kind, rv64.Port{}), w.Build(), w.Name)
}

// table5 produces the retarget figure from run's results: per-kernel
// simulated runtimes on both engines and the Captive-vs-QEMU speedup, with
// the geometric mean — the same shape as the GA64 SPECint figure (Fig. 17),
// for the second guest.
func table5(run func(machine.Kind, RVWorkload) (Result, error)) ([]perf.Table, error) {
	t := perf.Table{
		Title:   "Table 5: retargeted RV64 guest, Captive vs QEMU baseline",
		Columns: []string{"qemu(s)", "captive(s)", "speedup"},
	}
	var ratios []float64
	for _, w := range RVWorkloads() {
		c, err := run(machine.Captive, w)
		if err != nil {
			return nil, err
		}
		q, err := run(machine.QEMU, w)
		if err != nil {
			return nil, err
		}
		if c.Checksum != q.Checksum || c.GuestInstrs != q.GuestInstrs {
			return nil, fmt.Errorf("table5 %s: engines disagree: captive chk=%#x n=%d, qemu chk=%#x n=%d",
				w.Name, c.Checksum, c.GuestInstrs, q.Checksum, q.GuestInstrs)
		}
		s := perf.Speedup(q.Seconds, c.Seconds)
		t.Add(w.Name, q.Seconds, c.Seconds, s)
		ratios = append(ratios, s)
	}
	t.Add("Geo.Mean", 0, 0, perf.GeoMean(ratios))
	t.Notes = append(t.Notes,
		"same engines, same online pipeline as the GA64 figures — only the guest port differs",
		"paper (Table 5): the generated ARMv7 guest reaches ~7.8x QEMU; other guests are user-level models")
	return []perf.Table{t}, nil
}
