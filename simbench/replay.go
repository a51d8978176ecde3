package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// replay is the GPU workload. Its set-up is the cold path every fresh
// cmd/experiments run and every uncached simd key pays first: the 12
// benchmarks built with Benchmark.InstanceAt and run live on the base
// configuration with trace capture, through core.CaptureGPUAt. Input
// generation, the isa warp interpreter, trace encoding and the gpusim
// timing model do that work, so setup_s is where an interpreter change
// shows end to end. A pass then replays the 12 traces under the five
// non-base configurations Figures 4 and 5 sweep. Only the timing model
// runs — event loop and scheduler, coalescer, the caches (which do real
// work only on the GTX480 configurations, the only ones with L1/L2) and
// DRAM — fed by trace decode; the interpreter and input generation do
// none. So wall_s is the main stage for an event-loop or memory-model
// change, and the control for an interpreter change. The capture path is
// measured as this set-up, not as a workload of its own, because it is
// exactly this set-up: running it twice more per run as a separate
// workload would leave too little of the benchmark's time limit for any
// workload to measure for long.
type replay struct {
	o      options
	jobs   []replayJob
	traces map[string]*gpusim.RunTrace
}

type replayJob struct {
	bench *kernels.Benchmark
	cfg   namedConfig
}

type namedConfig struct {
	name string // as in the gpusim.replay_s.<name> metrics
	cfg  gpusim.Config
}

// replayConfigs are Figure 4's 4- and 6-channel points and Figure 5's
// three architectures.
func replayConfigs() []namedConfig {
	channels := func(n int) gpusim.Config {
		c := gpusim.Base()
		c.Name = fmt.Sprintf("%s-%dch", c.Name, n)
		c.MemChannels = n
		return c
	}
	return []namedConfig{
		{"4ch", channels(4)},
		{"6ch", channels(6)},
		{"gtx280", gpusim.GTX280()},
		{"gtx480-shared", gpusim.GTX480(gpusim.SharedBias)},
		{"gtx480-l1", gpusim.GTX480(gpusim.L1Bias)},
	}
}

func newReplay(o options) *replay {
	var jobs []replayJob
	for _, b := range kernels.All() {
		for _, nc := range replayConfigs() {
			jobs = append(jobs, replayJob{b, nc})
		}
	}
	return &replay{o: o, jobs: jobs}
}

func (r *replay) setups() int { return 2 }

// setup captures every benchmark's trace on the base configuration and
// checks each capture's Stats against its pin.
func (r *replay) setup() (*pass, error) {
	r.traces = nil
	p := &pass{}
	traces := make(map[string]*gpusim.RunTrace)
	var cycles, warps uint64
	for _, b := range kernels.All() {
		settle()
		st, rt, err := core.CaptureGPUAt(b, r.o.size, gpusim.Base(), false)
		if err != nil {
			return nil, err
		}
		if err := rt.Replayable(); err != nil {
			return nil, fmt.Errorf("%s: %w", b.Abbrev, err)
		}
		p.attempted++
		if got, want := jsonHash(st), r.o.pins.capture[b.Abbrev]; got != want {
			p.fail("capture %s: Stats hash %s, pinned %s", b.Abbrev, got, want)
		}
		traces[b.Abbrev] = rt
		cycles += st.Cycles
		warps += st.WarpInstrs
	}
	p.counts = map[string]uint64{"capture.cycles": cycles, "capture.warp_instrs": warps}
	r.traces = traces
	return p, nil
}

func (r *replay) run(tr *tracer) (*pass, error) {
	p := &pass{}
	var reg *obs.Registry
	if tr != nil {
		reg = obs.New()
	}
	var cycles, warps, l1, l2 uint64
	for _, j := range r.jobs {
		key := j.bench.Abbrev + "/" + j.cfg.name
		settle()
		root := tr.begin(0, "harness", "replay "+key)
		t0 := time.Now()
		sp := tr.begin(root, "gpusim", "Replay "+j.cfg.name)
		g, err := gpusim.New(j.cfg.cfg)
		if err == nil {
			g.SetObs(reg)
			err = g.Replay(r.traces[j.bench.Abbrev])
		}
		tr.end(sp)
		p.timed(time.Since(t0))
		tr.end(root)
		if err != nil {
			p.fail("%s: %v", key, err)
			continue
		}
		if got, want := jsonHash(g.Stats), r.o.pins.replay[key]; got != want {
			p.fail("%s: Stats hash %s, pinned %s", key, got, want)
		}
		st := g.Stats
		cycles += st.Cycles
		warps += st.WarpInstrs
		l1 += st.L1Hits + st.L1Misses
		l2 += st.L2Hits + st.L2Misses
	}
	var traceBytes uint64
	for _, rt := range r.traces {
		traceBytes += uint64(rt.Bytes())
	}
	p.counts = map[string]uint64{
		"gpusim.cycles":      cycles,
		"isa.warp_instrs":    warps,
		"isa.trace_bytes":    traceBytes,
		"gpusim.l1.accesses": l1,
		"gpusim.l2.accesses": l2,
	}
	addGPUCounts(p.counts, reg)
	return p, nil
}

// layers splits the set-up's capture, which spans cannot divide because
// the interpreter, trace recording and the timing model all run inside one
// Instance.Run; measures trace decode alone — every recorded warp walked
// once per configuration, as the pass decodes it; and the epoch engine's
// overhead against the sequential loop on the base configuration.
func (r *replay) layers(tr *tracer, traced *pass, m metrics) error {
	if err := r.captureLayers(m); err != nil {
		return err
	}
	var decode time.Duration
	for range replayConfigs() {
		for name, rt := range r.traces {
			t0 := time.Now()
			if err := walkTrace(rt); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			decode += time.Since(t0)
		}
	}
	m.set("isa.trace_decode_s", decode.Seconds())
	m.set("gpusim.timing_s.replay", (tr.total("gpusim", "") - decode).Seconds())
	for _, nc := range replayConfigs() {
		m.set("gpusim.replay_s."+nc.name, tr.total("gpusim", "Replay "+nc.name).Seconds())
	}
	m.set("gpusim.ns_per_warp_instr.replay", nsPer(traced.wall, traced.counts["isa.warp_instrs"]))

	// On one core the epoch engine's workers take turns, so its overhead
	// says nothing about parallel speed: leave it unmeasured.
	if runtime.NumCPU() < 2 {
		m.set("gpusim.epoch_overhead", unmeasuredValue)
		m.set("gpusim.barrier.crossings", unmeasuredValue)
		return nil
	}
	seq, _, err := r.replayBase(0, 0)
	if err != nil {
		return err
	}
	epoch, crossings, err := r.replayBase(2, 64)
	if err != nil {
		return err
	}
	m.set("gpusim.epoch_overhead", epoch.Seconds()/seq.Seconds())
	m.set("gpusim.barrier.crossings", float64(crossings))
	return nil
}

// captureLayers times the set-up's path piece by piece: input generation
// (InstanceAt), the same instances run on a capturing GPU, on a plain GPU
// (interpreter plus timing model) and under isa.Functional (the
// interpreter alone).
func (r *replay) captureLayers(m metrics) error {
	var inst, capture, plain, exec time.Duration
	var warps uint64
	for _, b := range kernels.All() {
		settle()
		t0 := time.Now()
		in := b.InstanceAt(r.o.size)
		inst += time.Since(t0)
		g, err := gpusim.New(gpusim.Base())
		if err != nil {
			return err
		}
		g.Capture()
		t0 = time.Now()
		if err := in.Run(g); err != nil {
			return fmt.Errorf("%s on a capturing GPU: %w", b.Abbrev, err)
		}
		capture += time.Since(t0)
		warps += g.Stats.WarpInstrs

		settle()
		in = b.InstanceAt(r.o.size)
		if g, err = gpusim.New(gpusim.Base()); err != nil {
			return err
		}
		t0 = time.Now()
		if err := in.Run(g); err != nil {
			return fmt.Errorf("%s on a plain GPU: %w", b.Abbrev, err)
		}
		plain += time.Since(t0)

		settle()
		in = b.InstanceAt(r.o.size)
		t0 = time.Now()
		if err := in.Run(&isa.Functional{}); err != nil {
			return fmt.Errorf("%s under isa.Functional: %w", b.Abbrev, err)
		}
		exec += time.Since(t0)
	}
	m.set("kernels.instance_s", inst.Seconds())
	m.set("isa.exec_s", exec.Seconds())
	m.set("isa.trace_encode_s", (capture - plain).Seconds())
	m.set("gpusim.timing_s.capture", (plain - exec).Seconds())
	m.set("gpusim.ns_per_warp_instr.capture", nsPer(capture, warps))
	return nil
}

// replayBase replays every trace on the base configuration with the given
// shard workers and epoch length, returning the host time and the barrier
// crossings.
func (r *replay) replayBase(workers, epoch int) (time.Duration, uint64, error) {
	cfg := gpusim.Base()
	cfg.ShardWorkers = workers
	cfg.EpochCycles = epoch
	reg := obs.New()
	t0 := time.Now()
	for name, rt := range r.traces {
		g, err := gpusim.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		g.SetObs(reg)
		if err := g.Replay(rt); err != nil {
			return 0, 0, fmt.Errorf("%s at %d workers, epoch %d: %w", name, workers, epoch, err)
		}
	}
	return time.Since(t0), reg.Counters()["gpusim.barrier.crossings"], nil
}

// walkTrace decodes every recorded warp of a trace with no timing model,
// releasing barriers as soon as every live warp of a CTA reaches one.
func walkTrace(rt *gpusim.RunTrace) error {
	_, launches, _ := rt.Export()
	var st isa.Step
	for _, lt := range launches {
		for id := 0; id < lt.Launch.Grid; id++ {
			cta := isa.MakeReplayCTA(lt, id)
			for !cta.Done() {
				for _, w := range cta.Warps {
					for !w.Done() && !w.AtBarrier() {
						if err := w.Exec(cta.Env, &st); err != nil {
							return err
						}
					}
				}
				for _, w := range cta.Warps {
					if w.AtBarrier() {
						w.ReleaseBarrier()
					}
				}
			}
		}
	}
	return nil
}

func (r *replay) close() {}

// addGPUCounts copies the timing model's registry counters into a pass's
// counts (nothing when no registry was attached).
func addGPUCounts(counts map[string]uint64, reg *obs.Registry) {
	if reg == nil {
		return
	}
	c := reg.Counters()
	for _, name := range []string{"gpusim.dram.accesses", "gpusim.clock.skipped_cycles", "gpusim.stall.sched_cycles"} {
		counts[name] = c[name]
	}
}
