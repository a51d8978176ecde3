package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sizes"
	"repro/internal/stats"
	"repro/internal/store"
)

// The suite matrix holds every whole-suite differential of the GPU
// simulator in one table. A leg simulates one benchmark at one size
// class on one configuration, on the sequential loop (workers 0) or the
// epoch engine, in one of four modes: live execution, the capturing run
// itself, replay of the size class's trace captured under gpusim.Base,
// or replay through a fresh store-backed experiments.Context that finds
// only that trace on disk. Every leg must reproduce the sequential live
// oracle for its (benchmark, size, configuration) deeply equal — the
// contract every paper figure depends on. Each test below runs one row
// of the table over all twelve benchmarks; oracles and captures are
// computed once per test binary and shared by every leg of every row.
// Under -race in CI the sharded legs also prove the epoch engine
// race-clean. Live legs and the oracle run on the producer's recording
// (functional-first, see internal/gpusim/feed.go), so live and replay
// share one functional stream; schedule_test.go checks that stream
// against schedules the producer never uses.

// mode is how a leg obtains its Stats.
type mode int

const (
	live    mode = iota // execute the kernels
	capture             // the capturing run: recording must not perturb Stats
	replay              // replay the size class's capture
	disk                // replay the capture from a store via a fresh Context
)

// leg is one cell of the matrix. cfg is the architecture only; workers
// and epoch select the engine.
type leg struct {
	mode           mode
	cfg            gpusim.Config
	workers, epoch int
}

func (l leg) String() string {
	return fmt.Sprintf("%s on %s workers=%d epoch=%d",
		[...]string{"live", "capture", "replay", "disk"}[l.mode], l.cfg.Name, l.workers, l.epoch)
}

// matrixRow is one test's slice of the matrix: the size class it runs
// at and the legs it runs for each benchmark.
type matrixRow struct {
	test string
	size sizes.Class
	legs func(b *kernels.Benchmark) []leg
}

// matrix is the table. Medium rows are the paper's size and skip in
// -short mode.
var matrix = []matrixRow{
	{"TestParallelSimulationDeterminism", sizes.Medium, func(*kernels.Benchmark) []leg {
		return []leg{{mode: live, cfg: gpusim.Base(), workers: 3}}
	}},
	{"TestGPUReplayDifferential", sizes.Medium, func(b *kernels.Benchmark) []leg {
		legs := []leg{{mode: capture, cfg: gpusim.Base()}}
		for _, cfg := range replayConfigs(b) {
			legs = append(legs, leg{mode: replay, cfg: cfg}, leg{mode: replay, cfg: cfg, workers: 3, epoch: 64})
		}
		return legs
	}},
	{"TestEpochSimulationDeterminism", sizes.Test, func(*kernels.Benchmark) []leg {
		var legs []leg
		for _, epoch := range []int{1, 8, 64} {
			for _, workers := range []int{2, 3} {
				for _, m := range []mode{live, replay} {
					legs = append(legs, leg{mode: m, cfg: gpusim.Base(), workers: workers, epoch: epoch})
				}
			}
		}
		return legs
	}},
	{"TestGPUReplayDifferentialTestSize", sizes.Test, func(*kernels.Benchmark) []leg {
		return []leg{{mode: capture, cfg: gpusim.Base()}, {mode: replay, cfg: gpusim.Base8SM()}, {mode: replay, cfg: gpusim.GTX280()}}
	}},
	{"TestGPUReplayDiskRoundTripDifferential", sizes.Test, func(*kernels.Benchmark) []leg {
		return []leg{{mode: disk, cfg: gpusim.Base8SM()}, {mode: disk, cfg: gpusim.GTX280()}}
	}},
}

func TestParallelSimulationDeterminism(t *testing.T)      { runMatrix(t) }
func TestGPUReplayDifferential(t *testing.T)              { runMatrix(t) }
func TestEpochSimulationDeterminism(t *testing.T)         { runMatrix(t) }
func TestGPUReplayDifferentialTestSize(t *testing.T)      { runMatrix(t) }
func TestGPUReplayDiskRoundTripDifferential(t *testing.T) { runMatrix(t) }

// replayConfigs builds the timing configurations the experiment suite
// actually sweeps for a benchmark: the Figure 4 memory-channel scaling,
// the Figure 5 architecture pair, and — for the four Plackett-Burman
// focus applications — all twelve PB design rows.
func replayConfigs(b *kernels.Benchmark) []gpusim.Config {
	var cfgs []gpusim.Config
	for _, ch := range []int{4, 6, 8} {
		c := gpusim.Base()
		c.Name = fmt.Sprintf("%s-%dch", c.Name, ch)
		c.MemChannels = ch
		cfgs = append(cfgs, c)
	}
	cfgs = append(cfgs, gpusim.GTX280(), gpusim.GTX480(gpusim.SharedBias), gpusim.GTX480(gpusim.L1Bias))
	if slices.Contains(experiments.PBApps, b.Abbrev) {
		for r, row := range stats.PB12() {
			c := gpusim.Base()
			c.Name = fmt.Sprintf("pb-row%d", r)
			for f := range experiments.PBFactors {
				experiments.PBFactors[f].Apply(&c, row[f] > 0)
			}
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// runMatrix runs the calling test's row for every benchmark, one
// parallel subtest each.
func runMatrix(t *testing.T) {
	i := slices.IndexFunc(matrix, func(r matrixRow) bool { return r.test == t.Name() })
	if i < 0 {
		t.Fatalf("no matrix row for %s", t.Name())
	}
	row := matrix[i]
	if row.size != sizes.Test && testing.Short() {
		t.Skipf("%s suite sweep in -short mode", row.size)
	}
	for _, b := range kernels.All() {
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			in := instance{b.Abbrev, row.size}
			if !capturedLater(i, b) {
				// A medium trace is ~13 MB; keep at most the in-flight ones.
				defer captures.forget(in)
			}
			var rd *diskReader
			for _, l := range row.legs(b) {
				want, err := oracles.do(oracleKey{in, l.cfg}, func() (*gpusim.Stats, error) {
					return core.CharacterizeGPUAt(b, row.size, l.cfg, false)
				})
				if err != nil {
					t.Fatalf("oracle on %s: %v", l.cfg.Name, err)
				}
				cfg := l.cfg
				cfg.ShardWorkers, cfg.EpochCycles = l.workers, l.epoch
				var got *gpusim.Stats
				switch l.mode {
				case live:
					got, err = core.CharacterizeGPUAt(b, row.size, cfg, false)
				case capture:
					got = captured(t, b, row.size).st
				case replay:
					got, err = core.ReplayGPU(b, cfg, captured(t, b, row.size).rt)
				case disk:
					if rd == nil {
						rd = newDiskReader(t, b, row.size)
					}
					rd.legs++
					got, err = rd.ctx.GPU(b, cfg)
				}
				if err != nil {
					t.Fatalf("%s: %v", l, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: stats diverge from sequential live execution\n got: %+v\nwant: %+v", l, got, want)
				}
			}
			if rd != nil {
				if c := rd.ctx.TraceCounters(); c.Captures != 0 || c.Replays != rd.legs {
					t.Errorf("reader context: %d captures, %d replays; want 0 captures, %d replays", c.Captures, c.Replays, rd.legs)
				}
				if rd.st.Counters().Hits == 0 {
					t.Error("reader context never hit the store")
				}
			}
		})
	}
}

// instance names one benchmark at one size class.
type instance struct {
	bench string
	size  sizes.Class
}

type oracleKey struct {
	instance
	cfg gpusim.Config
}

// capturedRun is the trace of an instance captured under gpusim.Base,
// with the capturing run's Stats.
type capturedRun struct {
	st *gpusim.Stats
	rt *gpusim.RunTrace
}

// memo computes each key's value once for the life of the test binary;
// concurrent callers of one key share the single computation.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]func() (V, error)
}

func (o *memo[K, V]) do(k K, f func() (V, error)) (V, error) {
	o.mu.Lock()
	g, ok := o.m[k]
	if !ok {
		if o.m == nil {
			o.m = make(map[K]func() (V, error))
		}
		g = sync.OnceValues(f)
		o.m[k] = g
	}
	o.mu.Unlock()
	return g()
}

func (o *memo[K, V]) forget(k K) {
	o.mu.Lock()
	delete(o.m, k)
	o.mu.Unlock()
}

// capturedLater reports whether a row after row i uses the capture of
// benchmark b at row i's size. Rows run one after another, so a capture
// no later row uses can be dropped once its own row is done with it.
func capturedLater(i int, b *kernels.Benchmark) bool {
	for _, r := range matrix[i+1:] {
		if r.size != matrix[i].size {
			continue
		}
		for _, l := range r.legs(b) {
			if l.mode != live {
				return true
			}
		}
	}
	return false
}

var (
	oracles  memo[oracleKey, *gpusim.Stats]
	captures memo[instance, capturedRun]
)

// captured returns the instance's shared capture.
func captured(t *testing.T, b *kernels.Benchmark, size sizes.Class) capturedRun {
	t.Helper()
	c, err := captures.do(instance{b.Abbrev, size}, func() (capturedRun, error) {
		st, rt, err := core.CaptureGPUAt(b, size, gpusim.Base(), false)
		return capturedRun{st, rt}, err
	})
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	return c
}

// diskReader is the disk legs' fresh process image: the instance's
// capture is persisted through one store handle, then read back through
// a second handle by a new Context with nothing in memory, pinning the
// whole disk path — encode, atomic write, index reload, decode,
// zero-copy slab re-slicing, replay.
type diskReader struct {
	ctx  *experiments.Context
	st   *store.Store
	legs uint64 // disk legs run through ctx, each one replay
}

func newDiskReader(t *testing.T, b *kernels.Benchmark, size sizes.Class) *diskReader {
	t.Helper()
	dir := t.TempDir()
	writer, err := store.Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.SaveTrace(store.TraceKey(b.Abbrev, size), captured(t, b, size).rt); err != nil {
		t.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, 0, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ctx := experiments.NewContext()
	ctx.Check = false
	ctx.Size = size
	ctx.Store = st
	return &diskReader{ctx: ctx, st: st}
}
