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
// interpreter's. Run under -race in CI, it also proves the reference
// producer race-clean.
func TestGPUStatsMatchReferenceInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("full characterization sweep in -short mode")
	}
	run := func(t *testing.T, b *kernels.Benchmark, ref bool) *Stats {
		t.Helper()
		g, err := New(Base())
		if err != nil {
			t.Fatal(err)
		}
		g.refInterp = ref
		if err := b.InstanceAt(sizes.Default).Run(g); err != nil {
			t.Fatalf("ref=%v: %v", ref, err)
		}
		return g.Stats
	}
	for _, b := range kernels.All() {
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			want := run(t, b, false)
			if got := run(t, b, true); !reflect.DeepEqual(got, want) {
				t.Errorf("reference interpreter diverges from optimized\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}
