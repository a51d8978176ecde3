// Command simbench is the simulator's benchmark. One invocation runs one
// workload and measures it end to end with tracing off (--trace 0), or
// layer by layer in a separate traced run (--trace 1):
//
//	bash simbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
//
// Three workloads, each described with its type together with why it is
// in the benchmark: replay (set-up runs the 12 GPU benchmarks live with
// trace capture; a pass replays the traces under the five Figure 4/5
// configurations), profile (the 24 CPU workloads) and serve (cmd/simd's
// HTTP service over a warm artifact store). Every workload calls only the
// public entry points of the simulator's packages, so each layer is
// measured from outside. The seed makes serve's request plan. replay and
// profile run the full suites in the order cmd/experiments runs them,
// whatever the seed: with a seeded order the capture's resident-memory
// peak read 158 or 204 MiB depending on which benchmark ran before
// hotspot, an artifact of the Go runtime's allocation history, not of the
// simulator.
//
// Standard output prints every metric by name and unit, then a run record
// (host, toolchain, commit, seed, counts), then as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The metrics are
// the end-to-end set with --trace 0 and the per-layer set with --trace 1.
//
// Output checks compare against pinned values (pins.go). The pins come
// from this simulator's own committed results, not from hardware, so the
// benchmark reports no accuracy figure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/sizes"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed serve's request plan is made from")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "simbench: --trace must be 0 or 1, not %d\n", *traced)
		return 2
	}
	o := options{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traced == 1,
		size:     sizes.Medium,
		workdir:  filepath.Join(".bench_build", "simbench"),
		pins:     committedPins,
	}
	res, rec, err := measure(o)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	if err := report(stdout, o, res, rec); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	return 0
}
