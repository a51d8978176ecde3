package experiments

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sizes"
	"repro/internal/store"
)

// storeContext builds a context with a persistent store over dir, with
// replay disabled so stubbed characterizations take the non-trace path.
func storeContext(t *testing.T, dir string) (*Context, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, 0, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ctx := NewContext()
	ctx.Replay = false
	ctx.Store = st
	return ctx, st
}

// TestStoreTierWarmStartsStats is the tentpole property at the unit
// level: a fresh context over a warmed store serves Stats from disk
// without running a single characterization.
func TestStoreTierWarmStartsStats(t *testing.T) {
	var runs atomic.Int32
	orig := characterizeGPU
	characterizeGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
		runs.Add(1)
		st := gpusim.NewStats(cfg.Name)
		st.Cycles = 42
		st.Kernel("k").Cycles = 7
		return st, nil
	}
	defer func() { characterizeGPU = orig }()

	dir := t.TempDir()
	b := kernels.All()[0]
	cfg := gpusim.Base8SM()

	cold, _ := storeContext(t, dir)
	want, err := cold.GPU(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("cold pass ran %d characterizations, want 1", runs.Load())
	}

	warm, st := storeContext(t, dir)
	got, err := warm.GPU(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("warm pass recomputed: %d runs total, want 1", runs.Load())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("disk-tier Stats diverged from the computed ones")
	}
	if c := st.Counters(); c.Hits != 1 {
		t.Fatalf("store hits = %d, want 1", c.Hits)
	}

	// A different configuration on the same warm store is still a miss —
	// the config participates in the key.
	other := gpusim.GTX280()
	if _, err := warm.GPU(b, other); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("distinct config served from disk: %d runs, want 2", runs.Load())
	}
}

// TestStoreTierNormalizesHostKnobs pins that the config name and the
// ignored ShardWorkers/EpochCycles are erased from the disk identity
// exactly as they are from the in-memory memo: a result computed without
// them warm-starts a config that sets them, and another epoch length is
// then a memory hit.
func TestStoreTierNormalizesHostKnobs(t *testing.T) {
	var runs atomic.Int32
	orig := characterizeGPU
	characterizeGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
		runs.Add(1)
		return gpusim.NewStats(cfg.Name), nil
	}
	defer func() { characterizeGPU = orig }()

	dir := t.TempDir()
	b := kernels.All()[0]

	cold, _ := storeContext(t, dir)
	if _, err := cold.GPU(b, gpusim.Base()); err != nil {
		t.Fatal(err)
	}

	warm, st := storeContext(t, dir)
	renamed := gpusim.Base()
	renamed.Name = "renamed-but-identical"
	renamed.ShardWorkers = 4
	renamed.EpochCycles = 64
	if _, err := warm.GPU(b, renamed); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("host knobs split the disk key: %d runs, want 1", runs.Load())
	}
	renamed.EpochCycles = 8
	if _, err := warm.GPU(b, renamed); err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); runs.Load() != 1 || c.Hits != 1 {
		t.Fatalf("host knobs split the memory key: %d runs, %d store hits; want 1 and 1", runs.Load(), c.Hits)
	}
}

// TestStoreTierConcurrentMissesComputeOnce extends the singleflight
// guarantee across the disk tier: many goroutines racing one uncached
// key produce exactly one computation and one disk write.
func TestStoreTierConcurrentMissesComputeOnce(t *testing.T) {
	var runs atomic.Int32
	orig := characterizeGPU
	characterizeGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
		runs.Add(1)
		return gpusim.NewStats(cfg.Name), nil
	}
	defer func() { characterizeGPU = orig }()

	ctx, st := storeContext(t, t.TempDir())
	b := kernels.All()[0]
	cfg := gpusim.Base()
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ctx.GPU(b, cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("characterization ran %d times, want 1", runs.Load())
	}
	if c := st.Counters(); c.Puts != 1 {
		t.Fatalf("store puts = %d, want 1", c.Puts)
	}
}

// TestStoreTierTraceWarmStart pins the trace disk tier end to end with a
// real benchmark: a fresh replay-enabled context over a warmed store
// replays the persisted functional trace instead of re-capturing, and
// its Stats match a direct characterization bit for bit.
func TestStoreTierTraceWarmStart(t *testing.T) {
	b, ok := kernels.ByAbbrev("BFS")
	if !ok {
		t.Fatal("no BFS benchmark")
	}
	dir := t.TempDir()
	cfg := gpusim.Base8SM()

	cold, _ := storeContext(t, dir)
	cold.Replay = true
	cold.Size = sizes.Test
	if _, err := cold.GPU(b, cfg); err != nil {
		t.Fatal(err)
	}
	if c := cold.TraceCounters(); c.Captures != 1 {
		t.Fatalf("cold context captured %d traces, want 1", c.Captures)
	}

	warm, st := storeContext(t, dir)
	warm.Replay = true
	warm.Size = sizes.Test
	// Ask for a configuration whose Stats are NOT on disk (GTX280 ≠ the
	// cold pass's Base8SM), forcing the trace tier — not the stats tier —
	// to satisfy the request.
	got, err := warm.GPU(b, gpusim.GTX280())
	if err != nil {
		t.Fatal(err)
	}
	if c := warm.TraceCounters(); c.Captures != 0 || c.Replays != 1 {
		t.Fatalf("warm context: %d captures, %d replays; want 0 captures, 1 replay", c.Captures, c.Replays)
	}
	if c := st.Counters(); c.Hits == 0 {
		t.Fatal("warm context never hit the disk store")
	}

	want, err := core.CharacterizeGPUAt(b, sizes.Test, gpusim.GTX280(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("disk-trace replay diverged from full execution")
	}
}

// TestStoreTierProfilesWarmStart pins the CPU-profile disk tier: the
// sweep is one artifact, and a fresh context serves it from disk.
func TestStoreTierProfilesWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a full CPU sweep")
	}
	dir := t.TempDir()
	cold, _ := storeContext(t, dir)
	cold.Size = sizes.Test
	want := cold.Profiles()
	if len(want) == 0 {
		t.Fatal("no profiles")
	}

	warm, st := storeContext(t, dir)
	warm.Size = sizes.Test
	got := warm.Profiles()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("disk-tier profiles diverged from the computed ones")
	}
	if c := st.Counters(); c.Hits != 1 {
		t.Fatalf("store hits = %d, want 1", c.Hits)
	}
}
