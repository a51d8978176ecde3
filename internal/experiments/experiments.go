// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment renders its artifact as text and records
// notes comparing the measured shape against the paper's reported
// behavior; EXPERIMENTS.md is the curated log of those comparisons.
package experiments

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sizes"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Result is a regenerated artifact.
type Result struct {
	ID    string
	Title string
	Text  string   // the rendered table/figure
	Notes []string // measured-vs-paper commentary
}

// Experiment is one table or figure driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx *Context) (*Result, error)
}

// Context resolves the characterizations experiments share, so related
// experiments (e.g. Figures 1-3 share the 28-SM run) execute each one
// once. Build it with NewContext. It is safe for concurrent use: GPU
// Stats, functional traces and CPU-profile sweeps each go through one
// resolver (memory, then Store, then compute), whose callers of one key
// share one in-flight call and whose memory tier is bounded and keeps
// successes only — a failed or panicked computation is retried by the
// next call.
type Context struct {
	// Check validates every GPU benchmark against its CPU reference
	// before trusting its statistics.
	Check bool

	// Size is the problem-size class experiments characterize at.
	// NewContext sets the default (medium) class, which reproduces the
	// paper's figures; note the Class zero value is the test class. The
	// scaling experiment sweeps every class regardless of this setting.
	Size sizes.Class

	// ScalingClasses restricts the scaling experiment's sweep
	// (nil means every size class).
	ScalingClasses []sizes.Class

	// Workers bounds the CPU-profiling worker pool used by Profiles
	// (≤ 0 means GOMAXPROCS). Whatever the value, the single memoized
	// pass yields profiles identical to a serial one.
	Workers int

	// ShardWorkers, when > 0, is stamped onto every configuration
	// characterized through the context: SMs shard across that many
	// goroutines inside each simulation, on the epoch-parallel engine at
	// its default epoch length. Results are bit-identical whatever the
	// value — it is a host-side execution knob, not a device parameter —
	// so results are keyed without it, just as without configuration
	// names (store.StatsConfig).
	ShardWorkers int

	// Replay enables trace-once/replay-many characterization: the first
	// run of a benchmark instance records a functional trace, and later
	// runs under other configurations drive the timing model from it
	// instead of re-executing the kernels (bit-identical Stats, as every
	// benchmark trace replays under every configuration; replays also
	// skip input generation and validation). NewContext sets it. Clear
	// it only where no trace will be replayed — a run of one
	// configuration with no Store — so no trace is kept.
	Replay bool

	// Store, when non-nil, is the persistent tier below memory: every
	// artifact the context computes — GPU Stats, warp traces, the
	// CPU-profile sweep — is looked up on disk before being computed and
	// spilled to disk after. Disk-tier decisions are published as
	// "trace" events; store.{hit,miss,evict,bytes} land on the store's
	// registry. A corrupt or stale blob is discarded and recomputed,
	// never an error.
	Store *store.Store

	// Obs, when non-nil, is the metrics registry the whole run reports
	// through: executed GPU characterizations (exp.gpu.*), the trace
	// tier (exp.trace.*), the CPU-profile pool (cpu.*), the concurrent
	// runner (runner.*) and the simulators underneath. Trace decisions —
	// capture, replay, eviction, and the disk tier's — are
	// published as "trace" events on it; subscribe with
	// Obs.OnEvent("trace", ...) (this is how cmd/experiments implements
	// -tracelog).
	Obs *obs.Registry

	stats    resolver[gpuKey, *gpusim.Stats]
	traces   resolver[traceID, *gpusim.RunTrace]
	profiles resolver[sizes.Class, []*core.CPUProfile]
	counts   struct{ captures, replays, evictions, uncacheable atomic.Uint64 }
}

// The Stats and profile tiers are bounded by entry count. A full
// cmd/experiments pass characterizes about 160 distinct (benchmark,
// size, configuration) keys and at most one profile sweep per size
// class (there are three), and simbench's serve plan asks for 157
// result identities, so neither ever evicts; a long-lived simd asked
// for ever more configurations keeps the most recently used.
const (
	statsEntries   = 1024
	profileEntries = 4
)

// DefaultTraceCacheBytes is the trace tier's byte bound. The full
// 12-benchmark Rodinia suite records about 160 MB of traces (one trace
// per benchmark instance serves every configuration of a sweep), so
// 1 GiB holds the suite plus the Table III program variants with room to
// spare while keeping a large multi-suite sweep from growing without
// bound.
const DefaultTraceCacheBytes = 1 << 30

// TraceCounters is a snapshot of the trace tier's decision counters.
// Captures counts functional passes that recorded a trace; Replays
// counts characterizations served from a trace; Evictions counts traces
// dropped by the LRU to respect the byte bound, and Uncacheable counts
// traces too large to keep at all. Bytes is the current occupancy.
type TraceCounters struct {
	Captures    uint64
	Replays     uint64
	Evictions   uint64
	Uncacheable uint64
	Bytes       int64
}

// gpuKey memoizes characterizations by configuration value, not name:
// experiments rename otherwise-identical configurations (Figure 4's
// 8-channel point is the base configuration), and Stats are a pure
// function of (benchmark, size class, configuration value) — nothing
// downstream prints the name a memoized result was first computed under.
// The size class is part of the key: two instances of one benchmark that
// differ only in problem size must never share an entry.
type gpuKey struct {
	bench string
	size  sizes.Class
	cfg   gpusim.Config
}

// traceID identifies the functional trace of one benchmark instance.
// Like gpuKey, it carries the size class: a trace captured at one size
// replays a different instruction stream than any other size, so reusing
// it across classes would silently corrupt every derived figure.
type traceID struct {
	bench string
	size  sizes.Class
}

func (id traceID) String() string { return id.bench + "@" + id.size.String() }

// The characterization entry points are swappable so tests can count and
// fake executions.
var (
	characterizeGPU = core.CharacterizeGPUObs
	captureGPU      = core.CaptureGPUObs
	replayGPU       = core.ReplayGPUObs
)

// NewContext returns an empty cache with validation and trace replay
// enabled, characterizing at the default (medium) size class.
func NewContext() *Context {
	c := &Context{Check: true, Replay: true, Size: sizes.Default}
	c.stats.limit = statsEntries
	c.traces.limit = DefaultTraceCacheBytes
	c.traces.cost = (*gpusim.RunTrace).Bytes
	c.traces.kept = c.traceKept
	c.profiles.limit = profileEntries
	return c
}

// GPU characterizes a benchmark on a configuration at the Context's size
// class, memoized.
func (c *Context) GPU(b *kernels.Benchmark, cfg gpusim.Config) (*gpusim.Stats, error) {
	return c.GPUAt(b, c.Size, cfg)
}

// GPUAt is GPU at an explicit size class; the class is part of the memo
// key, so the same benchmark at different sizes never shares a result.
func (c *Context) GPUAt(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config) (*gpusim.Stats, error) {
	if c.ShardWorkers > 0 {
		cfg.ShardWorkers = c.ShardWorkers
	}
	key := gpuKey{bench: b.Abbrev, size: size, cfg: store.StatsConfig(cfg)}
	id := traceID{bench: b.Abbrev, size: size}
	src := source[*gpusim.Stats]{compute: func() (*gpusim.Stats, error) { return c.run(b, size, cfg) }}
	if c.Store != nil {
		var skey store.Key
		src.load = func() (*gpusim.Stats, bool) {
			skey = store.StatsKey(b.Abbrev, size, key.cfg)
			st, ok := c.Store.LoadStats(skey)
			if ok {
				c.tracef("diskhit  %s on %s (stats)", id, cfg.Name)
			}
			return st, ok
		}
		src.save = func(st *gpusim.Stats) {
			if err := c.Store.SaveStats(skey, st); err != nil {
				c.tracef("diskerr  %s on %s: %v", id, cfg.Name, err)
			} else {
				c.tracef("diskput  %s on %s (stats)", id, cfg.Name)
			}
		}
	}
	return c.stats.get(key, src)
}

// run executes one characterization and reports it: memory and disk
// hits never get here, so exp.gpu.runs counts simulations, not requests.
func (c *Context) run(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config) (*gpusim.Stats, error) {
	var t0 time.Time
	if c.Obs != nil {
		t0 = time.Now()
	}
	st, err := c.characterize(b, size, cfg)
	if c.Obs != nil && err == nil {
		id := traceID{bench: b.Abbrev, size: size}.String()
		c.Obs.Counter(obs.Name("exp.gpu.wall_ns", "bench", id)).Add(uint64(time.Since(t0)))
		c.Obs.Counter(obs.Name("exp.gpu.cycles", "bench", id)).Add(st.Cycles)
		c.Obs.Counter(obs.Name("exp.gpu.runs", "bench", id)).Inc()
	}
	return st, err
}

// characterize runs one (benchmark, size, configuration)
// characterization, through the trace tier when replay is enabled. The
// instance's capture is the trace tier's computation: it serves the
// configuration that triggered it, and every caller that waited on it
// replays the trace. A capture that cannot replay — only a multi-kernel
// gpusim.GPU.LaunchConcurrent makes one, and benchmarks launch through
// isa.Executor, which has only Launch — is an error for every
// configuration that would replay it.
func (c *Context) characterize(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config) (*gpusim.Stats, error) {
	if !c.Replay {
		return characterizeGPU(b, size, cfg, c.Check, c.Obs)
	}
	id := traceID{bench: b.Abbrev, size: size}
	var captured *gpusim.Stats
	src := source[*gpusim.RunTrace]{compute: func() (*gpusim.RunTrace, error) {
		c.bump(&c.counts.captures, "exp.trace.captures")
		c.tracef("capture  %s on %s", id, cfg.Name)
		st, rt, err := captureGPU(b, size, cfg, c.Check, c.Obs)
		captured = st
		return rt, err
	}}
	if c.Store != nil {
		src.load = func() (*gpusim.RunTrace, bool) {
			rt, ok := c.Store.LoadTrace(store.TraceKey(id.bench, id.size))
			if ok {
				c.tracef("diskload %s (%d launches, %d bytes)", id, rt.NumLaunches(), rt.Bytes())
			}
			return rt, ok
		}
		src.save = func(rt *gpusim.RunTrace) {
			if rt.Replayable() != nil {
				return
			}
			if err := c.Store.SaveTrace(store.TraceKey(id.bench, id.size), rt); err != nil {
				c.tracef("diskerr  %s: %v", id, err)
			} else {
				c.tracef("diskput  %s trace (%d launches, %d bytes)", id, rt.NumLaunches(), rt.Bytes())
			}
		}
	}
	rt, err := c.traces.get(id, src)
	switch {
	case err != nil:
		return nil, err
	case captured != nil:
		return captured, nil
	}
	if err := rt.Replayable(); err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", id, cfg.Name, err)
	}
	c.bump(&c.counts.replays, "exp.trace.replays")
	c.tracef("replay   %s on %s (%d launches)", id, cfg.Name, rt.NumLaunches())
	return replayGPU(b, cfg, rt, c.Obs)
}

// traceKept reports what keeping a trace did to the trace tier.
func (c *Context) traceKept(id traceID, rt *gpusim.RunTrace, evicted []traceID, ok bool) {
	for _, victim := range evicted {
		c.bump(&c.counts.evictions, "exp.trace.evictions")
		c.tracef("evict    %s (cache over %d bytes)", victim, c.traces.limit)
	}
	if !ok {
		c.bump(&c.counts.uncacheable, "exp.trace.uncacheable")
		c.tracef("uncached %s: trace is %d bytes, cap %d", id, rt.Bytes(), c.traces.limit)
	}
	c.Obs.Gauge("exp.trace.cache_bytes").Set(c.traces.size())
}

// bump counts one trace decision, mirrored on the registry so
// -debug-addr shows them mid-run.
func (c *Context) bump(n *atomic.Uint64, name string) {
	n.Add(1)
	c.Obs.Counter(name).Inc()
}

// TraceCounters snapshots the trace tier's capture/replay/eviction
// decision counters (zero values when replay never ran).
func (c *Context) TraceCounters() TraceCounters {
	return TraceCounters{
		Captures:    c.counts.captures.Load(),
		Replays:     c.counts.replays.Load(),
		Evictions:   c.counts.evictions.Load(),
		Uncacheable: c.counts.uncacheable.Load(),
		Bytes:       c.traces.size(),
	}
}

func (c *Context) tracef(format string, args ...any) {
	c.Obs.Eventf("trace", format, args...)
}

// Profiles characterizes every CPU workload once at the Context's size
// class, memoized like GPU: however many Figure 6-12 experiments race
// here, exactly one profiling pass runs (fanned across Workers
// goroutines) and the rest wait for its result.
func (c *Context) Profiles() []*core.CPUProfile {
	return c.ProfilesAt(c.Size)
}

// ProfilesAt is Profiles at an explicit size class; each class is
// memoized independently. The sweep is one artifact on disk: profile
// order is part of it. A panic in the profiling pass reaches every
// caller waiting on it.
func (c *Context) ProfilesAt(size sizes.Class) []*core.CPUProfile {
	src := source[[]*core.CPUProfile]{compute: func() ([]*core.CPUProfile, error) {
		return core.CharacterizeCPUAllObs(workloads.All(), size, c.Workers, c.Obs), nil
	}}
	if c.Store != nil {
		var pkey store.Key
		src.load = func() ([]*core.CPUProfile, bool) {
			ws := workloads.All()
			names := make([]string, len(ws))
			for i, w := range ws {
				names[i] = w.Suite + "/" + w.Name
			}
			pkey = store.ProfilesKey(names, size)
			ps, ok := c.Store.LoadProfiles(pkey)
			if ok {
				c.tracef("diskhit  cpu-profiles@%s (%d workloads)", size, len(ps))
			}
			return ps, ok
		}
		src.save = func(ps []*core.CPUProfile) {
			if err := c.Store.SaveProfiles(pkey, ps); err != nil {
				c.tracef("diskerr  cpu-profiles@%s: %v", size, err)
			} else {
				c.tracef("diskput  cpu-profiles@%s (%d workloads)", size, len(ps))
			}
		}
	}
	ps, err := c.profiles.get(size, src)
	if err != nil {
		panic(err) // the profiling pass returns no errors, so this is its panic
	}
	return ps
}

// All returns every experiment in paper order.
func All() []*Experiment {
	return []*Experiment{
		expTable1, expTable2, expFig1, expFig2, expFig3, expFig4,
		expTable3, expFig5, expPB, expTable4, expTable5,
		expFig6, expFig7, expFig8, expFig9, expFig10, expFig11, expFig12,
		expDwarfs, expDivergence, expCorrelate, expConcurrent,
		expScaling,
	}
}

// ByID finds an experiment.
func ByID(id string) (*Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return nil, false
}

// IDs lists every experiment id.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// rankOf returns the (1-based) rank positions of each label when sorted
// by decreasing value — used by notes that assert orderings.
func rankOf(labels []string, values []float64) map[string]int {
	idx := make([]int, len(labels))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] > values[idx[b]] })
	out := make(map[string]int, len(labels))
	for rank, i := range idx {
		out[labels[i]] = rank + 1
	}
	return out
}

func note(format string, args ...any) string { return fmt.Sprintf(format, args...) }
