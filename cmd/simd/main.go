// Command simd is the characterization service: an HTTP/JSON server in
// front of the experiment harness. Submit a benchmark + size class +
// timing configuration, get its cached-or-computed characterization;
// with -store, results persist across restarts, so a warm store serves
// the whole benchmark matrix from disk.
//
// Usage:
//
//	simd -addr 127.0.0.1:8844        # listen address (port 0 = ephemeral)
//	simd -store /var/cache/simd      # persistent artifact store
//	simd -store-bytes 4294967296     # byte cap of the on-disk store LRU
//	simd -nocheck                    # skip functional validation
//	simd -workers 4                  # shard SMs across 4 goroutines (bit-identical)
//
// Endpoints:
//
//	GET  /characterize?bench=BFS&size=test&config=base&channels=4
//	POST /characterize   {"bench":"BFS","size":"test","config":"base"}
//	GET  /profiles?size=medium
//	GET  /benchmarks
//	GET  /healthz
//	GET  /debug/vars     # live store.{hit,miss,evict,bytes}, simd.*, gpusim.*
//	GET  /debug/pprof/
//	GET  /debug/quit     # clean shutdown (flushes the store index)
//
// Concurrent requests for the same uncached key share one simulation
// (the context's singleflight); every request reports latency and
// outcome through the obs registry served at /debug/vars.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/simd"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8844", "listen address (host:port; port 0 picks an ephemeral port)")
	cf := experiments.ContextFlags(flag.CommandLine)
	prof := obs.ProfileFlags(flag.CommandLine)
	flag.Parse()

	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer prof.Stop()

	reg := obs.New()
	ctx, err := cf.Context(reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer cf.Close()
	if st := ctx.Store; st != nil {
		fmt.Fprintf(os.Stderr, "simd: store %s (%d blobs, %d bytes)\n", st.Dir(), st.Len(), st.Bytes())
	}

	mux := simd.NewServeMux(ctx)
	srv, err := obs.ServeDebugMux(*addr, reg, mux)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "simd: serving on http://%s (POST /characterize, metrics at /debug/vars, quit at /debug/quit)\n", srv.Addr())
	<-srv.Quit()
	fmt.Fprintln(os.Stderr, "simd: quit requested, shutting down")
}
