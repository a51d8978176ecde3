// Command rodiniasim runs Rodinia benchmarks on the GPU timing simulator
// and prints their characterization statistics.
//
// Usage:
//
//	rodiniasim                      # all benchmarks on the base config
//	rodiniasim -bench SRAD,BFS      # a subset
//	rodiniasim -size test           # problem size class: test | medium | large
//	rodiniasim -list                # list benchmarks and per-class sizes, then exit
//	rodiniasim -config gtx480-l1    # base | base8 | gtx280 | gtx480-shared | gtx480-l1
//	rodiniasim -config base,gtx280  # sweep several configs (trace-once, replay-many)
//	rodiniasim -nocheck             # skip functional validation
//	rodiniasim -parallel 0          # run benchmarks concurrently (0 = GOMAXPROCS)
//	rodiniasim -store DIR           # persistent artifact store: warm-start repeat runs
//	rodiniasim -store-bytes N       # byte cap of the on-disk store LRU
//	rodiniasim -debug-addr 127.0.0.1:0 # serve live expvar metrics + pprof
//	rodiniasim -cpuprofile cpu.prof # write a pprof CPU profile of the run
//	rodiniasim -memprofile mem.prof # write a pprof heap profile at exit
//
// A multi-config sweep records each benchmark's functional execution
// once and replays the trace under every further configuration
// (bit-identical statistics, no kernel re-execution). A single-config
// run executes directly and keeps no trace, unless -store is given, in
// which case its trace is captured for later sweeps.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sizes"
)

// listBenchmarks prints every benchmark with its dwarf, the paper's
// problem size, and the simulated size of each class.
func listBenchmarks() {
	fmt.Printf("%-8s %-22s %-28s %s\n", "Abbrev", "Dwarf", "Paper size", "Simulated sizes (test | medium | large)")
	for _, b := range kernels.All() {
		var per []string
		for _, c := range sizes.Classes() {
			per = append(per, b.SimSize(c))
		}
		fmt.Printf("%-8s %-22s %-28s %s\n", b.Abbrev, b.Dwarf, b.PaperSize, strings.Join(per, " | "))
	}
}

func main() {
	benchList := flag.String("bench", "", "comma-separated benchmark abbreviations (default: all)")
	sizeName := flag.String("size", sizes.Default.String(), "problem size class: test, medium or large")
	list := flag.Bool("list", false, "list benchmarks with their per-class sizes and exit")
	cfgName := flag.String("config", "base", "GPU configuration, or a comma-separated sweep")
	perKernel := flag.Bool("perkernel", false, "also print a per-kernel statistics breakdown")
	parallel := flag.Int("parallel", 1, "benchmarks simulated concurrently; 0 means GOMAXPROCS")
	cf := experiments.ContextFlags(flag.CommandLine)
	debug := obs.DebugFlags(flag.CommandLine)
	prof := obs.ProfileFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		listBenchmarks()
		return
	}

	size, err := sizes.Parse(*sizeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer prof.Stop()

	reg := obs.New()
	srv, err := debug.Serve(reg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer srv.Close()

	var cfgs []gpusim.Config
	for _, name := range strings.Split(*cfgName, ",") {
		c, err := gpusim.Preset(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfgs = append(cfgs, c)
	}

	var benches []*kernels.Benchmark
	if *benchList == "" {
		benches = kernels.All()
	} else {
		for _, ab := range strings.Split(*benchList, ",") {
			b, ok := kernels.ByAbbrev(strings.TrimSpace(ab))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", ab)
				os.Exit(2)
			}
			benches = append(benches, b)
		}
	}

	// Characterize on a bounded worker pool; print in input order as
	// results become available.
	pool := *parallel
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	if pool > len(benches) {
		pool = len(benches)
	}
	type outcome struct {
		sts []*gpusim.Stats // one per config
		err error
	}
	// One experiments context serves every benchmark, so a multi-config
	// sweep traces each benchmark's functional execution once and replays
	// it for the other configurations. A single-config run executes
	// directly and keeps no trace, which nothing would replay (the medium
	// suite's traces take about 79 MB) — unless a persistent store is
	// attached, whose later runs the trace may warm-start.
	ctx, err := cf.Context(reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer cf.Close()
	ctx.Size = size
	if len(cfgs) == 1 && ctx.Store == nil {
		ctx.Replay = false
	}
	runBench := func(b *kernels.Benchmark) outcome {
		var sts []*gpusim.Stats
		for _, c := range cfgs {
			st, err := ctx.GPU(b, c)
			if err != nil {
				return outcome{err: err}
			}
			sts = append(sts, st)
		}
		return outcome{sts: sts}
	}
	outcomes := make([]outcome, len(benches))
	ready := make([]chan struct{}, len(benches))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outcomes[i] = runBench(benches[i])
				close(ready[i])
			}
		}()
	}
	go func() {
		for i := range benches {
			next <- i
		}
		close(next)
	}()

	for i, b := range benches {
		<-ready[i]
		sts, err := outcomes[i].sts, outcomes[i].err
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", b.Abbrev, err)
			os.Exit(1)
		}
		for ci, st := range sts {
			if len(cfgs) == 1 {
				fmt.Printf("--- %s (%s, %s) ---\n", b.Name, b.Dwarf, b.SimSize(size))
			} else {
				fmt.Printf("--- %s (%s, %s) @ %s ---\n", b.Name, b.Dwarf, b.SimSize(size), cfgs[ci].Name)
			}
			fmt.Println(st)
			if *perKernel {
				names := make([]string, 0, len(st.PerKernel))
				for name := range st.PerKernel {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					pk := st.PerKernel[name]
					fmt.Printf("  kernel %-24s launches=%-4d cycles=%-9d instrs=%-10d IPC=%.1f\n",
						name, pk.Launches, pk.Cycles, pk.ThreadInstrs, pk.IPC())
				}
			}
			fmt.Println()
		}
	}
	wg.Wait()
}
