// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments              # run everything, in paper order
//	experiments -only fig1   # run one experiment (comma-separated ids)
//	experiments -size test   # problem size class (test | medium | large)
//	experiments -classes test,large # restrict the scaling experiment's sweep
//	experiments -list        # list experiment ids
//	experiments -nocheck     # skip functional validation of GPU kernels
//	experiments -out results # also write one <id>.txt per artifact
//	experiments -parallel 0  # fan out across GOMAXPROCS workers
//	experiments -store DIR   # persistent artifact store: warm-start repeat runs
//	experiments -store-bytes N # byte cap of the on-disk store LRU
//	experiments -tracelog    # log trace capture/replay (and disk-tier) decisions
//	experiments -progress    # live progress (done/total, percent, ETA) on stderr
//	experiments -telemetry results # write telemetry.json/.txt ("" disables)
//	experiments -debug-addr 127.0.0.1:0 # serve expvar + pprof while running
//	experiments -debug-hold  # after the run, stay up until GET /debug/quit
//	experiments -cpuprofile cpu.prof -memprofile mem.prof
//
// With -parallel, independent experiments run concurrently on a shared
// context whose singleflight memoization still executes each underlying
// characterization exactly once; output streams in paper order as soon
// as each experiment (and all its predecessors) finishes.
//
// Each benchmark's functional execution is traced once and every
// further timing configuration replays the trace (bit-identical Stats,
// roughly half the wall clock of a full pass).
//
// Every run reports through an obs.Registry: -debug-addr serves the live
// registry as expvar JSON at /debug/vars (plus net/http/pprof), and
// -telemetry writes the per-run report — per-benchmark wall time and
// cycles/sec, trace-cache behavior, worker utilization, per-SM cycle
// accounting — as telemetry.json and telemetry.txt.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sizes"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	sizeName := flag.String("size", sizes.Default.String(), "problem size class: test, medium or large")
	classesList := flag.String("classes", "", "comma-separated size classes for the scaling sweep (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	outDir := flag.String("out", "", "directory to write one <id>.txt per artifact (optional)")
	parallel := flag.Int("parallel", 1, "experiment worker count; 0 means GOMAXPROCS")
	cf := experiments.ContextFlags(flag.CommandLine)
	tracelog := flag.Bool("tracelog", false, "log trace capture/replay decisions to stderr")
	progress := flag.Bool("progress", false, "report live progress (done/total, percent, ETA) on stderr")
	telemetry := flag.String("telemetry", "results", "directory for telemetry.json/telemetry.txt (empty disables)")
	debug := obs.DebugFlags(flag.CommandLine)
	debugHold := flag.Bool("debug-hold", false, "with -debug-addr, keep serving after the run until GET /debug/quit")
	prof := obs.ProfileFlags(flag.CommandLine)
	flag.Parse()

	size, err := sizes.Parse(*sizeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var scalingClasses []sizes.Class
	if *classesList != "" {
		scalingClasses, err = sizes.ParseList(*classesList)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer prof.Stop()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []*experiments.Experiment
	if *only == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %v\n", id, experiments.IDs())
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, err := cf.Context(obs.New())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer cf.Close()
	ctx.Size = size
	ctx.ScalingClasses = scalingClasses
	if *tracelog {
		ctx.Obs.OnEvent("trace", func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "trace: "+format+"\n", args...)
		})
	}

	srv, err := debug.Serve(ctx.Obs, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer srv.Close()

	start := time.Now()
	done := 0
	failed := false
	outcomes := experiments.RunConcurrent(ctx, selected, workers, func(o experiments.Outcome) {
		done++
		if *progress {
			// ETA extrapolates the mean per-experiment wall time over what
			// remains — crude (experiments vary wildly in cost) but live.
			elapsed := time.Since(start)
			eta := time.Duration(0)
			if done > 0 {
				eta = elapsed / time.Duration(done) * time.Duration(len(selected)-done)
			}
			fmt.Fprintf(os.Stderr, "progress: [%d/%d] %.0f%% %s done in %s (elapsed %s, eta %s)\n",
				done, len(selected), 100*float64(done)/float64(len(selected)), o.Experiment.ID,
				o.Elapsed.Truncate(time.Millisecond), elapsed.Truncate(time.Second), eta.Truncate(time.Second))
		}
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", o.Experiment.ID, o.Err)
			failed = true
			return
		}
		res := o.Result
		fmt.Printf("==================================================================\n")
		fmt.Printf("%s — %s  (%s)\n", res.ID, res.Title, o.Elapsed.Truncate(time.Millisecond))
		fmt.Printf("==================================================================\n")
		fmt.Println(res.Text)
		for _, n := range res.Notes {
			fmt.Printf("note: %s\n", n)
		}
		fmt.Println()
		if *outDir != "" {
			var buf strings.Builder
			fmt.Fprintf(&buf, "%s — %s\n\n%s\n", res.ID, res.Title, res.Text)
			for _, n := range res.Notes {
				fmt.Fprintf(&buf, "note: %s\n", n)
			}
			path := filepath.Join(*outDir, res.ID+".txt")
			if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
				failed = true
			}
		}
	})
	if *tracelog {
		c := ctx.TraceCounters()
		fmt.Fprintf(os.Stderr, "trace: %d captures, %d replays, %d evictions, %d uncacheable, %d bytes cached\n",
			c.Captures, c.Replays, c.Evictions, c.Uncacheable, c.Bytes)
		if ctx.Store != nil {
			sc := ctx.Store.Counters()
			fmt.Fprintf(os.Stderr, "store: %d hits, %d misses, %d puts, %d evictions, %d corrupt, %d uncacheable, %d bytes on disk\n",
				sc.Hits, sc.Misses, sc.Puts, sc.Evictions, sc.Corrupt, sc.Uncacheable, sc.Bytes)
		}
	}
	if *telemetry != "" {
		t := experiments.BuildTelemetry(ctx, outcomes)
		if err := t.Write(*telemetry); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "telemetry: wrote %s\n", filepath.Join(*telemetry, "telemetry.json"))
		}
	}
	if srv != nil && *debugHold {
		fmt.Fprintf(os.Stderr, "debug: run complete; holding for GET http://%s/debug/quit\n", srv.Addr())
		<-srv.Quit()
	}
	if failed {
		// os.Exit skips defers; the run itself completed, so flush the
		// profiles before reporting failure.
		prof.Stop()
		os.Exit(1)
	}
}
