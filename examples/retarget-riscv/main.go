// Retargetability demo (§3.3/Table 5 of the paper): the same ADL toolchain
// that generates the GA64 model also builds an RV64I+M model with the real
// RISC-V encodings — and, through the guest-port abstraction layer
// (internal/guest/port), the *same* execution engines run it. The factorial
// program below executes on all three: the reference SSA interpreter, the
// Captive online DBT (partial-evaluating generators, DAG emitter, regalloc,
// physically-indexed code cache, block chaining) and the QEMU-style softmmu
// baseline, with per-engine guest-instruction and simulated-cycle counts.
//
//	go run ./examples/retarget-riscv
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"captive/internal/guest/rv64"
	rvasm "captive/internal/guest/rv64/asm"
	"captive/internal/machine"
	"captive/internal/perf"
)

// Hand-encoded RV64: iterative factorial of x10 into x11, then ecall.
func factorialProgram() []byte {
	encI := func(imm, rs1, f3, rd, op uint32) uint32 {
		return imm<<20 | rs1<<15 | f3<<12 | rd<<7 | op
	}
	encR := func(f7, rs2, rs1, f3, rd, op uint32) uint32 {
		return f7<<25 | rs2<<20 | rs1<<15 | f3<<12 | rd<<7 | op
	}
	encB := func(imm int32, rs2, rs1, f3, op uint32) uint32 {
		u := uint32(imm)
		return (u>>12&1)<<31 | (u>>5&0x3F)<<25 | rs2<<20 | rs1<<15 | f3<<12 |
			(u>>1&0xF)<<8 | (u>>11&1)<<7 | op
	}
	words := []uint32{
		encI(12, 0, 0, 10, 0b0010011),     // addi x10, x0, 12   (n)
		encI(1, 0, 0, 11, 0b0010011),      // addi x11, x0, 1    (acc)
		encR(1, 10, 11, 0, 11, 0b0110011), // loop: mul x11, x11, x10
		encI(0xFFF, 10, 0, 10, 0b0010011), // addi x10, x10, -1
		encB(-8, 0, 10, 1, 0b1100011),     // bne x10, x0, loop
		0x00000073,                        // ecall
	}
	out := make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[i*4:], w)
	}
	return out
}

const (
	org      = 0x1000
	ramBytes = 8 << 20
)

// pagedBootProgram is the full-system half of the demo: an M-mode boot
// builds sv39 page tables with ordinary stores (an identity RWX megapage
// for code, a *read-only* megapage at 2 MiB), installs mtvec, enables
// paging and drops to S-mode via mret. The supervisor body then takes a
// store page fault on the read-only page; the M handler records the
// syndrome (x20=mcause, x21=mtval), skips the store, and the final ecall
// exits cleanly. x12=0x51 proves the body resumed past the fault.
func pagedBootProgram() *rvasm.Program {
	const root, l1 = 0x700000, 0x701000
	pte := func(pa, bits uint64) uint64 { return pa>>12<<10 | bits }
	leaf := uint64(rv64.PTEV | rv64.PTEA | rv64.PTED)
	p := rvasm.New(org)
	st := func(addr, v uint64) {
		p.Li(6, v)
		p.Li(7, addr)
		p.Sd(6, 7, 0)
	}
	st(root, pte(l1, rv64.PTEV))
	st(l1, pte(0, leaf|rv64.PTER|rv64.PTEW|rv64.PTEX))
	st(l1+8, pte(0x200000, leaf|rv64.PTER))
	p.La(6, "handler")
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
	p.Li(10, 0x200000)
	p.Ld(11, 10, 0) // reads are allowed
	p.Sd(11, 10, 0) // store page fault: vectored to the M handler
	p.Li(12, 0x51)  // resumed here after the handler skips the store
	p.Ecall()
	p.Label("handler")
	p.Csrr(24, rv64.CSRMcause)
	p.Li(22, rv64.CauseEcallS)
	p.Beq(24, 22, "exit")
	p.Mv(20, 24) // record the *fault's* cause, not the exit ecall's
	p.Csrr(21, rv64.CSRMtval)
	p.Csrr(23, rv64.CSRMepc)
	p.Addi(23, 23, 4)
	p.Csrw(rv64.CSRMepc, 23)
	p.Mret()
	p.Label("exit")
	p.Csrw(rv64.CSRMtvec, rvasm.X0)
	p.Ecall()
	return p
}

// run executes an image on one engine via the RV64 guest port and returns
// the machine for state inspection.
func run(kind machine.Kind, img []byte) (machine.Machine, error) {
	m, err := machine.New(machine.Spec{Kind: kind, Guest: rv64.Port{},
		RAMBytes: ramBytes, CodeCacheBytes: 1 << 20, PTPoolBytes: 1 << 20})
	if err != nil {
		return nil, err
	}
	if err := m.LoadImage(img, org, org); err != nil {
		return nil, err
	}
	if err := m.Run(1_000_000); err != nil {
		return nil, err
	}
	if halted, code := m.Exit(); !halted || code != 0 {
		return nil, fmt.Errorf("engine did not exit cleanly (halted=%v code=%d)", halted, code)
	}
	return m, nil
}

// engines runs the golden interpreter first: every later engine is checked
// against it.
var engines = []machine.Kind{machine.Interp, machine.Captive, machine.QEMU}

func main() {
	module := rv64.MustModule()
	st := module.Stats()
	fmt.Printf("RV64 model built from the ADL: %d instructions, decoder with %d nodes (depth %d)\n\n",
		len(module.Instrs), st.Nodes, st.MaxDepth)

	// The unified reference interpreter (the golden model, the same engine
	// that golden-runs GA64), the Captive online pipeline and the QEMU-style
	// baseline, all executing RISC-V through rv64.Port.
	var golden machine.Machine
	for _, kind := range engines {
		m, err := run(kind, factorialProgram())
		if err != nil {
			log.Fatalf("%s: %v", kind, err)
		}
		result, instrs := m.Reg(0, 11), m.GuestInstrs(0)
		fmt.Printf("%-10s 12! = %-12d %8d guest instructions", kind.String()+":", result, instrs)
		if cycles := m.Metrics().SimDeciCycles; cycles > 0 {
			fmt.Printf(", %10.0f cycles (%.2f µs simulated)",
				float64(cycles)/perf.DeciCyclesPerCycle, perf.Seconds(cycles)*1e6)
		}
		fmt.Println()
		if golden == nil {
			golden = m
		} else if result != golden.Reg(0, 11) || instrs != golden.GuestInstrs(0) {
			log.Fatalf("%s diverges from the interpreter", kind)
		}
	}
	fmt.Println("\nall three engines agree bit-for-bit (result and instruction count)")

	// Full-system retarget: the paged supervisor boot (M-mode page-table
	// setup, mret to S-mode, a handled store page fault) through the same
	// engines — no engine code knows it is running RISC-V.
	fmt.Println("\npaged supervisor boot (sv39, M->S mret, handled store page fault):")
	img, err := pagedBootProgram().Assemble()
	if err != nil {
		log.Fatal(err)
	}
	golden = nil
	for _, kind := range engines {
		m, err := run(kind, img)
		if err != nil {
			log.Fatalf("%s: %v", kind, err)
		}
		fmt.Printf("%-10s fault cause=%d tval=%#x resumed=%#x %8d guest instructions (satp=%#x, %d host faults)\n",
			kind.String()+":", m.Reg(0, 20), m.Reg(0, 21), m.Reg(0, 12), m.GuestInstrs(0),
			rv64.RawSys(m.Sys(0)).Satp, m.Metrics().HostFaults)
		if golden == nil {
			golden = m
		} else if m.Reg(0, 21) != golden.Reg(0, 21) || m.GuestInstrs(0) != golden.GuestInstrs(0) || m.Reg(0, 12) != golden.Reg(0, 12) {
			log.Fatalf("%s diverges from the interpreter on the paged boot", kind)
		}
	}
	fmt.Println("\nsupervisor-mode RISC-V runs through every engine with zero core changes")
}
