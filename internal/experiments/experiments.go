// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment renders its artifact as text and records
// notes comparing the measured shape against the paper's reported
// behavior; EXPERIMENTS.md is the curated log of those comparisons.
package experiments

import (
	"fmt"
	"sort"
	"sync"
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

// Context caches expensive characterizations so related experiments
// (e.g. Figures 1-3 share the 28-SM run) execute each simulation once.
// It is safe for concurrent use: lookups are memoized with singleflight
// semantics, so when several experiments race for the same
// characterization exactly one executes it and the rest wait for its
// result.
type Context struct {
	// Check validates every GPU benchmark against its CPU reference
	// before trusting its statistics.
	Check bool

	// Size is the problem-size class experiments characterize at.
	// NewContext sets the default (medium) class, which reproduces the
	// paper's figures; note the Class zero value is the test class, so
	// a hand-built zero Context characterizes at test. The scaling
	// experiment sweeps every class regardless of this setting.
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
	// so memoization ignores it, just as it ignores configuration names.
	ShardWorkers int

	// Replay enables trace-once/replay-many characterization: the first
	// run of a benchmark records a functional trace, and later runs under
	// other configurations drive the timing model from it instead of
	// re-executing the kernels (bit-identical Stats; replays also skip
	// input generation and validation). Incompatible configurations fall
	// back to full execution automatically (gpusim.RunTrace.CompatibleWith).
	Replay bool

	// StrictPlacement restricts replay to configurations with the
	// capture's exact CTA→SM placement — defense in depth for workloads
	// whose launch-synchronization discipline is unvetted; the Rodinia
	// suite replays bit-identically without it (pinned by the
	// internal/core differential tests).
	StrictPlacement bool

	// TraceCacheBytes caps the trace cache (0 means
	// DefaultTraceCacheBytes). Least-recently-used traces are evicted
	// once the cap is exceeded.
	TraceCacheBytes int64

	// Store, when non-nil, is the persistent second tier below the
	// in-memory caches: every artifact the context computes — GPU Stats,
	// warp traces, the CPU-profile sweep — is looked up on disk before
	// being computed and spilled to disk after (memory hit → disk hit →
	// compute). The existing singleflight still applies, so concurrent
	// misses on one key hit the disk and the simulator exactly once.
	// Disk-tier decisions are published as "trace" events alongside the
	// trace cache's; store.{hit,miss,evict,bytes} land on the store's
	// registry. A corrupt or stale blob is discarded and recomputed,
	// never an error.
	Store *store.Store

	// Obs, when non-nil, is the metrics registry the whole run reports
	// through: memoized GPU characterizations (exp.gpu.*), the trace
	// cache (exp.trace.*), the CPU-profile pool (cpu.*), the concurrent
	// runner (runner.*) and the simulators underneath. Trace decisions —
	// capture, replay, fallback, eviction — are published as "trace"
	// events on it; subscribe with Obs.OnEvent("trace", ...) (this is how
	// cmd/experiments implements -tracelog).
	Obs *obs.Registry

	mu        sync.Mutex
	gpuCalls  map[gpuKey]*gpuCall
	profCalls map[sizes.Class]*profilesCall
	gates     map[traceID]*sync.Mutex
	traces    *traceCache
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

// gpuCall is one in-flight or completed GPU characterization.
type gpuCall struct {
	done  chan struct{}
	stats *gpusim.Stats
	err   error
}

// profilesCall is the in-flight or completed CPU-profile sweep.
type profilesCall struct {
	done     chan struct{}
	profiles []*core.CPUProfile
}

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
	return &Context{Check: true, Replay: true, Size: sizes.Default, gpuCalls: make(map[gpuKey]*gpuCall)}
}

// GPU characterizes a benchmark on a configuration at the Context's size
// class, memoized. Errors are cached too: a characterization that fails
// once fails the same way for every experiment that needs it, without
// re-running the simulation.
func (c *Context) GPU(b *kernels.Benchmark, cfg gpusim.Config) (*gpusim.Stats, error) {
	return c.GPUAt(b, c.Size, cfg)
}

// GPUAt is GPU at an explicit size class; the class is part of the memo
// key, so the same benchmark at different sizes never shares a result.
func (c *Context) GPUAt(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config) (*gpusim.Stats, error) {
	if c.ShardWorkers > 0 {
		cfg.ShardWorkers = c.ShardWorkers
	}
	key := gpuKey{bench: b.Abbrev, size: size, cfg: cfg}
	key.cfg.Name = ""
	// The worker count doesn't affect Stats (bit-identity is pinned by
	// internal/core's suite matrix), so results memoize across it.
	key.cfg.ShardWorkers = 0
	c.mu.Lock()
	if c.gpuCalls == nil {
		c.gpuCalls = make(map[gpuKey]*gpuCall)
	}
	if call, ok := c.gpuCalls[key]; ok {
		c.mu.Unlock()
		<-call.done
		return call.stats, call.err
	}
	call := &gpuCall{done: make(chan struct{})}
	c.gpuCalls[key] = call
	c.mu.Unlock()

	call.stats, call.err = c.gpuTiers(b, size, cfg, key)
	close(call.done)
	return call.stats, call.err
}

// gpuTiers resolves one memo miss through the remaining tiers: the
// persistent store (when attached), then computation. key.cfg is the
// normalized configuration — host-side knobs cleared — which is exactly
// the identity the disk artifact is addressed by.
func (c *Context) gpuTiers(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, key gpuKey) (*gpusim.Stats, error) {
	id := traceID{bench: b.Abbrev, size: size}
	var skey store.Key
	if c.Store != nil {
		skey = store.StatsKey(b.Abbrev, size, key.cfg)
		if st, ok := c.Store.LoadStats(skey); ok {
			c.tracef("diskhit  %s on %s (stats)", id, cfg.Name)
			return st, nil
		}
	}
	var t0 time.Time
	if c.Obs != nil {
		t0 = time.Now()
	}
	st, err := c.characterize(b, size, cfg)
	if c.Obs != nil && err == nil {
		// Only executed characterizations land here — memo and disk hits
		// above return without re-reporting, so exp.gpu.runs counts
		// simulations, not requests.
		c.Obs.Counter(obs.Name("exp.gpu.wall_ns", "bench", id.String())).Add(uint64(time.Since(t0)))
		c.Obs.Counter(obs.Name("exp.gpu.cycles", "bench", id.String())).Add(st.Cycles)
		c.Obs.Counter(obs.Name("exp.gpu.runs", "bench", id.String())).Inc()
	}
	if err == nil && c.Store != nil {
		if perr := c.Store.SaveStats(skey, st); perr != nil {
			c.tracef("diskerr  %s on %s: %v", id, cfg.Name, perr)
		} else {
			c.tracef("diskput  %s on %s (stats)", id, cfg.Name)
		}
	}
	return st, err
}

// characterize runs one (benchmark, size, configuration)
// characterization, through the trace cache when replay is enabled. A
// per-instance gate serializes capture against concurrent requests for
// the same benchmark at the same size, so a sweep racing several
// configurations of one instance records its functional pass exactly
// once and replays the rest.
func (c *Context) characterize(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config) (*gpusim.Stats, error) {
	if !c.Replay {
		return characterizeGPU(b, size, cfg, c.Check, c.Obs)
	}
	id := traceID{bench: b.Abbrev, size: size}
	gate, traces := c.traceState(id)
	gate.Lock()
	rt, fallback := traces.lookup(id, &cfg, c.StrictPlacement)
	if rt == nil && fallback == "" && c.Store != nil {
		// Disk tier: a trace captured by an earlier process (or an earlier
		// context on this store) re-enters the in-memory cache and serves
		// this sweep without a functional pass. Only consulted when the
		// memory cache has no entry at all for the instance — an
		// incompatible memory entry means the disk holds the same trace or
		// an older one.
		rt, fallback = c.loadDiskTrace(id, &cfg, traces)
	}
	if rt != nil {
		gate.Unlock() // replays only read the trace; they need no gate
		c.tracef("replay   %s on %s (%d launches)", id, cfg.Name, rt.NumLaunches())
		return replayGPU(b, cfg, rt, c.Obs)
	}
	defer gate.Unlock()
	traces.noteCapture(fallback != "")
	if fallback != "" {
		c.tracef("fallback %s on %s: %s", id, cfg.Name, fallback)
	} else {
		c.tracef("capture  %s on %s", id, cfg.Name)
	}
	st, fresh, err := captureGPU(b, size, cfg, c.Check, c.Obs)
	if err != nil {
		return nil, err
	}
	evicted, cached := traces.insert(id, fresh)
	for _, victim := range evicted {
		c.tracef("evict    %s (cache over %d bytes)", victim, traces.capBytes)
	}
	if !cached {
		c.tracef("uncached %s: trace is %d bytes, cap %d", id, fresh.Bytes(), traces.capBytes)
	}
	if c.Store != nil && fresh.Replayable() == nil {
		tkey := store.TraceKey(id.bench, id.size)
		if perr := c.Store.SaveTrace(tkey, fresh); perr != nil {
			c.tracef("diskerr  %s: %v", id, perr)
		} else {
			c.tracef("diskput  %s trace (%d launches, %d bytes)", id, fresh.NumLaunches(), fresh.Bytes())
		}
	}
	return st, nil
}

// loadDiskTrace pulls the instance's trace from the persistent store
// into the in-memory cache (the caller holds the instance's capture
// gate) and resolves this request against it. A trace too large for the
// memory cache still serves the current request directly when
// compatible.
func (c *Context) loadDiskTrace(id traceID, cfg *gpusim.Config, traces *traceCache) (*gpusim.RunTrace, string) {
	drt, ok := c.Store.LoadTrace(store.TraceKey(id.bench, id.size))
	if !ok {
		return nil, ""
	}
	c.tracef("diskload %s (%d launches, %d bytes)", id, drt.NumLaunches(), drt.Bytes())
	evicted, cached := traces.insert(id, drt)
	for _, victim := range evicted {
		c.tracef("evict    %s (cache over %d bytes)", victim, traces.capBytes)
	}
	if cached {
		return traces.lookup(id, cfg, c.StrictPlacement)
	}
	c.tracef("uncached %s: trace is %d bytes, cap %d", id, drt.Bytes(), traces.capBytes)
	if err := drt.CompatibleWith(cfg, c.StrictPlacement); err != nil {
		return nil, err.Error()
	}
	return drt, ""
}

// traceState returns the instance's capture gate and the trace cache,
// creating them on first use.
func (c *Context) traceState(id traceID) (*sync.Mutex, *traceCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gates == nil {
		c.gates = make(map[traceID]*sync.Mutex)
	}
	if c.traces == nil {
		c.traces = newTraceCache(c.TraceCacheBytes, c.Obs)
	}
	gate := c.gates[id]
	if gate == nil {
		gate = &sync.Mutex{}
		c.gates[id] = gate
	}
	return gate, c.traces
}

// TraceCounters snapshots the trace cache's capture/replay/fallback
// decision counters (zero values when replay never ran).
func (c *Context) TraceCounters() TraceCounters {
	c.mu.Lock()
	traces := c.traces
	c.mu.Unlock()
	if traces == nil {
		return TraceCounters{}
	}
	return traces.snapshot()
}

func (c *Context) tracef(format string, args ...any) {
	c.Obs.Eventf("trace", format, args...)
}

// Profiles characterizes every CPU workload once at the Context's size
// class, memoized with the same singleflight semantics as GPU: however
// many Figure 6-12 experiments race here, exactly one profiling pass runs
// (fanned across Workers goroutines) and the rest wait for its result.
func (c *Context) Profiles() []*core.CPUProfile {
	return c.ProfilesAt(c.Size)
}

// ProfilesAt is Profiles at an explicit size class; each class is
// memoized independently.
func (c *Context) ProfilesAt(size sizes.Class) []*core.CPUProfile {
	c.mu.Lock()
	if c.profCalls == nil {
		c.profCalls = make(map[sizes.Class]*profilesCall)
	}
	call := c.profCalls[size]
	if call == nil {
		call = &profilesCall{done: make(chan struct{})}
		c.profCalls[size] = call
		c.mu.Unlock()
		call.profiles = c.computeProfiles(size)
		close(call.done)
		return call.profiles
	}
	c.mu.Unlock()
	<-call.done
	return call.profiles
}

// computeProfiles resolves one CPU-profile memo miss: persistent store
// first (the sweep is one artifact — profile order is part of it), then
// the profiling pass, spilled to disk on the way out.
func (c *Context) computeProfiles(size sizes.Class) []*core.CPUProfile {
	ws := workloads.All()
	var pkey store.Key
	if c.Store != nil {
		names := make([]string, len(ws))
		for i, w := range ws {
			names[i] = w.Suite + "/" + w.Name
		}
		pkey = store.ProfilesKey(names, size)
		if ps, ok := c.Store.LoadProfiles(pkey); ok {
			c.tracef("diskhit  cpu-profiles@%s (%d workloads)", size, len(ps))
			return ps
		}
	}
	ps := core.CharacterizeCPUAllObs(ws, size, c.Workers, c.Obs)
	if c.Store != nil {
		if perr := c.Store.SaveProfiles(pkey, ps); perr != nil {
			c.tracef("diskerr  cpu-profiles@%s: %v", size, perr)
		} else {
			c.tracef("diskput  cpu-profiles@%s (%d workloads)", size, len(ps))
		}
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
