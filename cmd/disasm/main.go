// Command disasm prints PTX-like listings of the Rodinia GPU kernels.
//
//	disasm -bench SRAD           # the two SRAD v2 kernels
//	disasm -bench SRADv1         # the unoptimized variants
//	disasm -list                 # available benchmarks
//
// Each listing opens with the kernel's register and shared/local memory
// directives, followed by one instruction per line with its PC.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/isa"
	"repro/internal/kernels"
)

func main() {
	bench := flag.String("bench", "", "benchmark abbreviation (see -list)")
	list := flag.Bool("list", false, "list available benchmarks")
	flag.Parse()

	if *list || *bench == "" {
		fmt.Println("available:", kernels.ListingAbbrevs())
		if *bench == "" && !*list {
			os.Exit(2)
		}
		return
	}
	ks, err := kernels.KernelsOf(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for i, k := range ks {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(isa.Disassemble(k))
	}
}
