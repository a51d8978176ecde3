// Command microbench runs the simulator-validation microbenchmark suite:
// synthetic kernels isolating issue throughput, SFU serialization,
// shared-memory bank conflicts, coalescing, DRAM bandwidth/latency and
// branch divergence.
//
//	microbench                 # base (Table II) configuration
//	microbench -config gtx280  # any rodiniasim configuration name
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/gpusim"
	"repro/internal/micro"
	"repro/internal/report"
)

func main() {
	cfgName := flag.String("config", "base", "GPU configuration ("+strings.Join(gpusim.PresetNames(), ", ")+")")
	flag.Parse()

	cfg, err := gpusim.Preset(*cfgName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	results, err := micro.RunAll(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{r.Name, r.Metric, fmt.Sprintf("%.3f", r.Value), r.Note})
	}
	fmt.Printf("Microbenchmarks on %s (%d SMs, %d-wide SIMD, %d banks, %d channels)\n\n",
		cfg.Name, cfg.NumSMs, cfg.SIMDWidth, cfg.SharedBanks, cfg.MemChannels)
	fmt.Println(report.Table([]string{"Probe", "Metric", "Value", "Notes"}, rows))
}
