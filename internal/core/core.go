// Package core is the library façade of the reproduction: it characterizes
// GPU benchmarks on the timing simulator and CPU workloads through the
// trace/cachesim pipeline, producing the profiles and feature vectors the
// paper's analyses (PCA, clustering, figures) are built from.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/cachesim"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sizes"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// CPUProfile is the full characterization vector of one CPU workload: the
// Bienia et al. metrics used in Figures 6-12.
type CPUProfile struct {
	Name  string
	Suite string

	// Instruction mix fractions (Figure 7).
	ALU, Branch, Load, Store float64

	// Misses per memory reference at each cachesim.DefaultSizesKB size
	// (Figures 8 and 10).
	MissRates []float64

	// Sharing behavior (Figure 9).
	SharedLineFrac   float64
	SharedAccessFrac float64
	SharedStoreFrac  float64
	MeanSharers      float64

	// Footprints (Figures 11 and 12).
	InstrBlocks uint64 // unique 64-byte instruction blocks
	DataPages   uint64 // unique 4 kB data pages

	MemRefs uint64
	Instrs  uint64
}

// Label renders the figure label, e.g. "srad(R)".
func (p *CPUProfile) Label() string { return p.Name + "(" + p.Suite + ")" }

// MissRate4MB is the Figure 10 metric.
func (p *CPUProfile) MissRate4MB() float64 {
	for i, kb := range cachesim.DefaultSizesKB {
		if kb == 4096 {
			return p.MissRates[i]
		}
	}
	return 0
}

// MixVector is the instruction-mix feature subset (Figure 7).
func (p *CPUProfile) MixVector() []float64 {
	return []float64{p.ALU, p.Branch, p.Load, p.Store}
}

// WorkingSetVector is the miss-rate curve feature subset (Figure 8).
func (p *CPUProfile) WorkingSetVector() []float64 {
	return append([]float64(nil), p.MissRates...)
}

// SharingVector is the sharing feature subset (Figure 9).
func (p *CPUProfile) SharingVector() []float64 {
	return []float64{p.SharedLineFrac, p.SharedAccessFrac, p.SharedStoreFrac, p.MeanSharers}
}

// FullVector concatenates every characteristic (Figure 6's clustering
// space). Footprints enter in log scale, as magnitudes not raw counts.
func (p *CPUProfile) FullVector() []float64 {
	v := p.MixVector()
	v = append(v, p.WorkingSetVector()...)
	v = append(v, p.SharingVector()...)
	v = append(v, math.Log10(float64(p.InstrBlocks+1)), math.Log10(float64(p.DataPages+1)))
	return v
}

// CharacterizeCPU runs one workload through the Pin-equivalent pipeline
// with the paper's methodology: 8 threads, one shared 4-way cache per
// size, 64-byte lines. It traces the default (medium) size class.
func CharacterizeCPU(w *workloads.Workload) *CPUProfile {
	return CharacterizeCPUAt(w, sizes.Default)
}

// CharacterizeCPUAt is CharacterizeCPU at an explicit size class.
func CharacterizeCPUAt(w *workloads.Workload, size sizes.Class) *CPUProfile {
	return CharacterizeCPUObs(w, size, nil)
}

// CharacterizeCPUObs is CharacterizeCPUAt with telemetry: the pipeline's
// event/batch totals, sweep probe counts and the workload's wall time
// land in the registry (cpu.* instruments; nil is the free no-op).
func CharacterizeCPUObs(w *workloads.Workload, size sizes.Class, r *obs.Registry) *CPUProfile {
	mix := &cachesim.Mix{}
	sweep := cachesim.NewSweep()
	sharing := cachesim.NewSharing()
	foot := cachesim.NewDataFootprint()
	h := trace.NewHarness(workloads.Threads, mix, sweep, sharing, foot)
	h.SetObs(r)
	t0 := time.Now()
	w.RunAt(h, size)
	if r != nil {
		r.Counter("cpu.trace.events").Add(h.Events)
		r.Counter("cpu.trace.batches").Add(h.Batches)
		r.Counter("cpu.sweep.accesses").Add(sweep.Accesses)
		r.Counter("cpu.sweep.probes").Add(sweep.Probes)
		r.Counter(obs.Name("cpu.workload.wall_ns", "workload", w.Name)).Add(uint64(time.Since(t0)))
		r.Counter("cpu.workloads").Inc()
	}

	alu, br, ld, st := mix.Fractions()
	return &CPUProfile{
		Name:             w.Name,
		Suite:            w.Suite,
		ALU:              alu,
		Branch:           br,
		Load:             ld,
		Store:            st,
		MissRates:        sweep.MissRates(),
		SharedLineFrac:   sharing.SharedLineFraction(),
		SharedAccessFrac: sharing.SharedAccessFraction(),
		SharedStoreFrac:  sharing.SharedStoreFraction(),
		MeanSharers:      sharing.MeanSharers(),
		InstrBlocks:      h.TouchedInstrBlocks(),
		DataPages:        foot.Pages(),
		MemRefs:          mix.MemRefs(),
		Instrs:           mix.Total(),
	}
}

// CharacterizeCPUAllObs profiles the given workloads at one size class
// on up to the given number of worker goroutines (≤ 0 means GOMAXPROCS).
// Each worker builds its own harness and consumers, so workloads never
// share mutable state; profiles are returned in input order and are
// identical to a serial pass regardless of the worker count. Each
// workload reports through the registry (safe concurrently — every
// instrument is atomic), and the pool itself reports its size. A nil
// registry is the free no-op.
func CharacterizeCPUAllObs(ws []*workloads.Workload, size sizes.Class, workers int, r *obs.Registry) []*CPUProfile {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ws) {
		workers = len(ws)
	}
	if r != nil {
		r.Gauge("cpu.pool.workers").Set(int64(workers))
	}
	out := make([]*CPUProfile, len(ws))
	if workers <= 1 {
		for i, w := range ws {
			out[i] = CharacterizeCPUObs(w, size, r)
		}
		return out
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = CharacterizeCPUObs(ws[i], size, r)
			}
		}()
	}
	for i := range ws {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// CharacterizeGPU runs one Rodinia benchmark at the default (medium)
// size class; see CharacterizeGPUAt.
func CharacterizeGPU(b *kernels.Benchmark, cfg gpusim.Config, check bool) (*gpusim.Stats, error) {
	return CharacterizeGPUAt(b, sizes.Default, cfg, check)
}

// CharacterizeGPUAt runs one Rodinia benchmark at the given size class to
// completion on a simulated GPU and returns the accumulated statistics.
// With check set, device results are validated against the CPU reference
// first.
func CharacterizeGPUAt(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool) (*gpusim.Stats, error) {
	return CharacterizeGPUObs(b, size, cfg, check, nil)
}

// CharacterizeGPUObs is CharacterizeGPUAt with telemetry: the simulated
// GPU reports per-SM busy/idle cycles, stall reasons and memory-pipeline
// occupancy through the registry (gpusim.* instruments; nil is the free
// no-op). The registry rides on the GPU instance, not in its Config or
// Stats, so memo keys and determinism comparisons are unaffected.
func CharacterizeGPUObs(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
	in := b.InstanceAt(size)
	g, err := gpusim.New(cfg)
	if err != nil {
		return nil, err
	}
	g.SetObs(r)
	if err := in.Run(g); err != nil {
		return nil, fmt.Errorf("core: %s on %s: %w", b.Abbrev, cfg.Name, err)
	}
	if check {
		if err := in.Check(); err != nil {
			return nil, fmt.Errorf("core: %s on %s failed validation: %w", b.Abbrev, cfg.Name, err)
		}
	}
	return g.Stats, nil
}

// CaptureGPUAt is CharacterizeGPUAt with trace recording: alongside the
// statistics it returns a functional trace of every kernel launch the
// benchmark issued, suitable for ReplayGPU under any configuration when
// it is replayable (gpusim.RunTrace.Replayable). Recording does not
// perturb the statistics.
func CaptureGPUAt(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool) (*gpusim.Stats, *gpusim.RunTrace, error) {
	return CaptureGPUObs(b, size, cfg, check, nil)
}

// CaptureGPUObs is CaptureGPUAt with telemetry; see CharacterizeGPUObs.
func CaptureGPUObs(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, *gpusim.RunTrace, error) {
	in := b.InstanceAt(size)
	g, err := gpusim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	g.SetObs(r)
	tb := g.Capture()
	if err := in.Run(g); err != nil {
		return nil, nil, fmt.Errorf("core: %s on %s: %w", b.Abbrev, cfg.Name, err)
	}
	if check {
		if err := in.Check(); err != nil {
			return nil, nil, fmt.Errorf("core: %s on %s failed validation: %w", b.Abbrev, cfg.Name, err)
		}
	}
	return g.Stats, tb.Trace(), nil
}

// ReplayGPU characterizes a benchmark from a recorded trace instead of
// executing it: no input generation, no kernel execution, no validation —
// only the timing model runs. The caller is responsible for checking
// trace compatibility (or accepting the error Replay returns).
func ReplayGPU(b *kernels.Benchmark, cfg gpusim.Config, rt *gpusim.RunTrace) (*gpusim.Stats, error) {
	return ReplayGPUObs(b, cfg, rt, nil)
}

// ReplayGPUObs is ReplayGPU with telemetry; see CharacterizeGPUObs.
// Replay funnels through the same launch loop as live execution, so a
// replayed run reports the identical cycle-level instrument set.
func ReplayGPUObs(b *kernels.Benchmark, cfg gpusim.Config, rt *gpusim.RunTrace, r *obs.Registry) (*gpusim.Stats, error) {
	g, err := gpusim.New(cfg)
	if err != nil {
		return nil, err
	}
	g.SetObs(r)
	if err := g.Replay(rt); err != nil {
		return nil, fmt.Errorf("core: %s replay on %s: %w", b.Abbrev, cfg.Name, err)
	}
	return g.Stats, nil
}
