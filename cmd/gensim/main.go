// Command gensim is the offline generation tool (§2.2): it parses an
// architecture description, builds and optimizes the domain-specific SSA,
// generates the decoder, and reports model statistics. With -dump it prints
// the optimized SSA of one instruction in the textual form of the paper's
// Fig. 4/Fig. 6.
//
//	gensim                      # statistics for the bundled GA64 model
//	gensim -O 1                 # ... at offline optimization level O1
//	gensim -dump add_reg        # optimized SSA of one instruction
//	gensim -model rv64          # the bundled RISC-V model
package main

import (
	"flag"
	"fmt"
	"os"

	"captive/internal/gen"
	"captive/internal/guest/ga64"
	"captive/internal/guest/rv64"
	"captive/internal/ssa"
)

// models maps each -model name to the guest package's module builder.
var models = map[string]func(ssa.OptLevel) (*gen.Module, error){
	"ga64": ga64.NewModule,
	"rv64": rv64.NewModule,
}

func main() {
	level := flag.Int("O", 4, "offline optimization level (1-4)")
	dump := flag.String("dump", "", "dump the optimized SSA of one instruction")
	model := flag.String("model", "ga64", "architecture model: ga64 or rv64")
	flag.Parse()

	build, ok := models[*model]
	if !ok {
		fmt.Fprintf(os.Stderr, "gensim: unknown model %q\n", *model)
		os.Exit(1)
	}
	module, err := build(ssa.OptLevel(*level))
	if err != nil {
		fmt.Fprintln(os.Stderr, "gensim:", err)
		os.Exit(1)
	}

	if *dump != "" {
		for _, in := range module.Instrs {
			if in.Name == *dump {
				fmt.Print(in.Action.String())
				return
			}
		}
		fmt.Fprintf(os.Stderr, "gensim: no instruction %q\n", *dump)
		os.Exit(1)
	}

	stmts := 0
	endsBlock := 0
	for _, in := range module.Instrs {
		stmts += in.Action.StmtCount()
		if in.Action.EndsBlock {
			endsBlock++
		}
	}
	st := module.Stats()
	fmt.Printf("model:            %s (O%d)\n", module.Arch, *level)
	fmt.Printf("instructions:     %d (%d end translation blocks)\n", len(module.Instrs), endsBlock)
	fmt.Printf("formats:          %d, %d-bit words\n", len(module.File.Formats), module.InstBits)
	fmt.Printf("helpers:          %d (inlined offline)\n", len(module.File.Helpers))
	fmt.Printf("ssa statements:   %d\n", stmts)
	fmt.Printf("register file:    %d bytes (PC at +%d)\n", module.Layout.Size, module.Layout.PCOffset)
	fmt.Printf("decoder tree:     %d nodes, %d leaves, depth %d, max %d candidates/leaf\n",
		st.Nodes, st.Leaves, st.MaxDepth, st.MaxCands)
}
