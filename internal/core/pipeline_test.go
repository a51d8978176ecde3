package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sizes"
	"repro/internal/store"
)

// The pipeline oracle. A live launch returns once its kernel has run,
// and its timing runs behind the previous launch's while the next
// launch's kernel executes (internal/gpusim, feed.go). Waiting for every
// launch's timing before the next launch gives the synchronous order, in
// which nothing overlaps. Both orders must produce the same Stats and the
// same recorded trace for every benchmark.

// settledExec launches on a GPU and waits for each launch's timing
// before returning, so no launch's timing overlaps the next kernel.
type settledExec struct{ *gpusim.GPU }

func (e settledExec) Launch(k *isa.Kernel, launch isa.Launch, mem *isa.Memory) error {
	if err := e.GPU.Launch(k, launch, mem); err != nil {
		return err
	}
	return e.GPU.Wait()
}

// captureRun is one capture's Stats as JSON, its encoded trace, and how
// many of its launches overlapped an earlier launch's timing.
type captureRun struct {
	stats, trace []byte
	overlapped   uint64
}

// captureOrdered captures the benchmark at the test class on cfg, with
// every launch settled before the next one or pipelined, validates the
// device results and checks the Stats' identities.
func captureOrdered(t *testing.T, b *kernels.Benchmark, cfg gpusim.Config, settled bool) captureRun {
	t.Helper()
	in := b.InstanceAt(sizes.Test)
	g, err := gpusim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := obs.New()
	g.SetObs(r)
	tb := g.Capture()
	var ex isa.Executor = g
	if settled {
		ex = settledExec{g}
	}
	if err := in.Run(ex); err != nil {
		t.Fatal(err)
	}
	if err := in.Check(); err != nil {
		t.Fatal(err)
	}
	if err := g.Stats.Check(cfg); err != nil {
		t.Fatal(err)
	}
	st, err := json.Marshal(g.Stats)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := store.EncodeTrace(tb.Trace())
	if err != nil {
		t.Fatal(err)
	}
	return captureRun{st, tr, r.Counters()["gpusim.launch.overlapped"]}
}

// TestPipelinedLaunchesEqualSettled holds the oracle for every benchmark
// at the test class on Base and on GTX480 with its L1. NW, LUD and BFS
// launch many kernels back to back, so their pipelined runs must show
// launches that overlapped: otherwise the test would compare the
// synchronous order with itself.
func TestPipelinedLaunchesEqualSettled(t *testing.T) {
	overlaps := map[string]bool{"NW": true, "LUD": true, "BFS": true}
	for _, cfg := range []gpusim.Config{gpusim.Base(), gpusim.GTX480(gpusim.L1Bias)} {
		for _, b := range kernels.All() {
			t.Run(b.Abbrev+"@"+cfg.Name, func(t *testing.T) {
				t.Parallel()
				settled := captureOrdered(t, b, cfg, true)
				pipelined := captureOrdered(t, b, cfg, false)
				t.Logf("%d launches overlapped an earlier launch's timing", pipelined.overlapped)
				if settled.overlapped != 0 {
					t.Fatalf("%d launches overlapped though each was waited for", settled.overlapped)
				}
				if overlaps[b.Abbrev] && pipelined.overlapped == 0 {
					t.Fatal("no launch overlapped an earlier launch's timing")
				}
				if !bytes.Equal(pipelined.stats, settled.stats) {
					t.Fatalf("pipelined Stats differ from settled\npipelined: %s\nsettled:   %s", pipelined.stats, settled.stats)
				}
				if !bytes.Equal(pipelined.trace, settled.trace) {
					t.Fatalf("pipelined trace (%d bytes) differs from settled (%d bytes)", len(pipelined.trace), len(settled.trace))
				}
			})
		}
	}
}
