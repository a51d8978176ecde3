package gpusim

import (
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sizes"
)

// TestGPUStatsMatchReferenceInterpreter is the acceptance differential for
// the flat-register fast path: for every benchmark at the default size,
// producers running the retained per-thread reference interpreter (the
// refInterp hook) must yield Stats deeply equal to the optimized
// interpreter's — on the sequential loop and on the epoch engine. The
// optimized interpreter's own shard determinism is pinned by
// internal/core's suite matrix. Run under -race in CI, the sharded leg
// also proves the reference producer race-clean.
func TestGPUStatsMatchReferenceInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("full characterization sweep in -short mode")
	}
	run := func(t *testing.T, b *kernels.Benchmark, ref bool, workers int) *Stats {
		t.Helper()
		cfg := Base()
		cfg.ShardWorkers = workers
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.refInterp = ref
		if err := b.InstanceAt(sizes.Default).Run(g); err != nil {
			t.Fatalf("ref=%v workers=%d: %v", ref, workers, err)
		}
		return g.Stats
	}
	for _, b := range kernels.All() {
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			want := run(t, b, false, 0)
			for _, workers := range []int{0, 3} {
				if got := run(t, b, true, workers); !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: reference interpreter diverges from optimized\n got: %+v\nwant: %+v", workers, got, want)
				}
			}
		})
	}
}
