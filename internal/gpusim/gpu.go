package gpusim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/isa"
)

// GPU is a simulated device. It implements isa.Executor; Launch runs a
// kernel under the timing model and accumulates into Stats. Per-SM caches,
// the L2 and the sharing tracker persist across launches, as on hardware.
//
// A launch runs functional-first and asynchronously: each kernel executes
// on a producer goroutine that records its warps' streams CTA by CTA, and
// Launch returns once it has, while the launch's timing replays those
// streams on a goroutine chained behind the previous launch's timing
// (feed.go), exactly as a stored trace is replayed (trace.go). Stats are
// complete once Wait returns. The timing core is assembled from
// pluggable components, each in its own file: a warp scheduler
// (scheduler.go), a memory subsystem — coalescer, bank-conflict model,
// cache hierarchy — (memsys.go), and a DRAM-channel model (dram.go).
// Configuration differences such as Fermi vs. GT200 are expressed as
// component wiring, not branches in the event loop (launch.go).
type GPU struct {
	cfg Config
	// Stats accumulates every launch's statistics. The timing side writes
	// it, so read it after Wait.
	Stats *Stats

	sched   warpScheduler
	sms     []*smCaches
	l2      *cache
	sharing *sharingTracker

	// pipe orders the launches' timings (feed.go).
	pipe pipeline

	// capture, when non-nil, records the functional half of every launch
	// into a RunTrace for later replay (trace.go).
	capture *TraceBuilder

	// refInterp is a test-only validation hook: the producers (feed.go)
	// run kernels on the retained per-thread reference interpreter
	// (isa.RefWarp) instead of the optimized one. Results must be
	// bit-identical; the package's reference differential pins that
	// across all twelve benchmarks. Replay executes no kernel, so it
	// ignores the hook.
	refInterp bool

	// obsC, when non-nil, is the cached set of registry instruments the
	// per-launch telemetry flush writes (obs.go in this package). Nil by
	// default: the event loop then skips all telemetry collection, at the
	// cost of one predictable branch per collection site.
	obsC *gpuCounters
}

// smCaches is one SM's state that outlives a launch: its private caches
// and its bank-conflict scratch (bankScratch).
type smCaches struct {
	l1      *cache
	constC  *cache
	texC    *cache
	bankScr bankScratch
}

var _ isa.Executor = (*GPU)(nil)

// New builds a GPU for the configuration.
func New(cfg Config) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GPU{
		cfg:     cfg,
		Stats:   NewStats(cfg.Name),
		sched:   looseRoundRobin{},
		l2:      newCache(cfg.L2CacheKB, 8, cfg.LineSize),
		sharing: newSharingTracker(cfg.LineSize),
		pipe:    newPipeline(),
	}
	g.Stats.PeakBytesPerCycle = cfg.dramBytesPerCoreCycle() * float64(cfg.MemChannels)
	for i := 0; i < cfg.NumSMs; i++ {
		g.sms = append(g.sms, &smCaches{
			l1:     newCache(cfg.L1CacheKB, 4, cfg.LineSize),
			constC: newCache(cfg.ConstCacheKB, 4, cfg.LineSize),
			texC:   newCache(cfg.TexCacheKB, 4, cfg.LineSize),
		})
	}
	return g, nil
}

// Config returns the GPU's configuration.
func (g *GPU) Config() Config { return g.cfg }

// CTAsPerSM computes how many CTAs of the kernel fit on one SM given the
// register, thread, shared-memory and CTA-slot budgets.
func (g *GPU) CTAsPerSM(k *isa.Kernel, block int) int {
	return g.cfg.CTAsPerSM(k, block)
}

// Launch runs the kernel under the timing model. Like LaunchConcurrent,
// it returns once the kernel has executed; Wait ends its timing.
func (g *GPU) Launch(k *isa.Kernel, launch isa.Launch, mem *isa.Memory) error {
	return g.LaunchConcurrent([]LaunchSpec{{Kernel: k, Launch: launch, Mem: mem}})
}

// LaunchConcurrent runs several kernels simultaneously, sharing the
// device — the "simultaneous kernel execution" feature the paper lists as
// future work. CTAs from all kernels are dispatched round-robin onto SMs
// under the per-SM thread/register/shared-memory budgets, so kernels with
// complementary resource appetites overlap.
//
// Each kernel executes functionally on a producer goroutine (feed.go);
// kernels that share a Memory share one producer and run in spec order.
// LaunchConcurrent returns once every producer has exited, so the caller
// may read device memory right away, and a fault or panic in a kernel is
// returned by this call. The launch's timing runs on a goroutine of its
// own once the previous launch's timing has ended, so it may still be
// running: Stats, an attached capture and the telemetry are complete
// only after Wait. A failure of a launch's timing is returned by Wait,
// and by every later launch once it is known.
func (g *GPU) LaunchConcurrent(specs []LaunchSpec) error {
	if len(specs) == 0 {
		return fmt.Errorf("gpusim: no kernels to launch")
	}
	if err := g.pipe.failure(); err != nil {
		return err
	}
	rss := make([]*runSpec, len(specs))
	for i, spec := range specs {
		err := g.admit(spec.Kernel, spec.Launch)
		var rec *isa.LaunchRecorder
		if err == nil {
			rec, err = isa.NewLaunchRecorder(spec.Kernel, spec.Launch)
		}
		if err != nil {
			// The capture is the timing side's until its launches end; a
			// failure among them stays for the next Launch or Wait.
			_ = g.Wait()
			g.failCapture(err)
			return err
		}
		rss[i] = &runSpec{
			idx: i, k: spec.Kernel, launch: spec.Launch,
			trace: rec.Trace(), feed: newCTAFeed(rec, spec.Launch.Grid),
		}
	}
	g.pipe.room <- struct{}{} // wait for the oldest pending timing to end
	prev, done := g.pipe.last, make(chan struct{})
	g.pipe.last = done
	if g.obsC != nil && prev != nil {
		select {
		case <-prev:
		default:
			g.obsC.overlapped.Inc()
		}
	}
	var producers sync.WaitGroup
	for i := range specs {
		if slices.ContainsFunc(specs[:i], func(o LaunchSpec) bool { return o.Mem == specs[i].Mem }) {
			continue // an earlier spec's producer runs this kernel
		}
		producers.Add(1)
		go func() {
			defer producers.Done()
			for j := i; j < len(specs); j++ {
				if specs[j].Mem == specs[i].Mem {
					rss[j].feed.produce(specs[j], g.refInterp)
				}
			}
		}()
	}
	go g.time(rss, prev, done)
	producers.Wait()
	for _, sp := range rss {
		if sp.feed.err != nil {
			return sp.feed.err
		}
	}
	return g.pipe.failure()
}

// time is a launch's timing side. Once the previous launch's timing has
// ended (prev), it runs the event loop over the recorded CTAs as the
// producers publish them, unless an earlier launch's timing failed; then
// it stops the producers, keeps or drops the recording, and closes done.
// It alone writes Stats, the capture and the telemetry for the launch.
func (g *GPU) time(rss []*runSpec, prev, done chan struct{}) {
	if prev != nil {
		<-prev
	}
	err := g.pipe.failure()
	if err == nil {
		if err = g.timeLaunch(rss); err != nil {
			// Recorded before the producers stop, so Launch learns why.
			g.pipe.fail(err)
		}
	}
	for _, sp := range rss {
		sp.feed.finish()
	}
	switch {
	case g.capture == nil:
	case err != nil:
		g.failCapture(err)
	case len(rss) > 1:
		// Replay runs one kernel per launch.
		g.capture.invalidate(fmt.Sprintf("concurrent launch of %d kernels", len(rss)))
	default:
		g.capture.add(rss[0].feed.rec.Finalize())
	}
	for _, sp := range rss {
		sp.feed.rec.Release()
	}
	<-g.pipe.room
	close(done)
}

// timeLaunch runs a launch's event loop, live or replayed, and returns a
// panic in it as an error: nothing else on a live launch's timing
// goroutine would recover it, and Replay returns it like any failure.
func (g *GPU) timeLaunch(rss []*runSpec) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("gpusim: timing of kernel %s panicked: %v", rss[0].k.Name, p)
		}
	}()
	return g.runLaunch(rss)
}

// Wait blocks until the timing of every launch so far has ended, so
// Stats, an attached capture and the telemetry are complete, and returns
// the first failure of any launch's timing, a kernel fault that launch's
// Launch already returned included. Calling Wait after every Launch
// gives the synchronous order; isa.Executor documents the contract.
func (g *GPU) Wait() error {
	if g.pipe.last != nil {
		<-g.pipe.last
	}
	return g.pipe.failure()
}

// failCapture invalidates an attached capture after a failed launch.
func (g *GPU) failCapture(err error) {
	if g.capture != nil {
		g.capture.invalidate("launch failed: " + err.Error())
	}
}

// admit checks a launch's geometry and that one of its CTAs fits on an
// SM.
func (g *GPU) admit(k *isa.Kernel, launch isa.Launch) error {
	if err := launch.Validate(); err != nil {
		return err
	}
	if g.CTAsPerSM(k, launch.Block) == 0 {
		return fmt.Errorf("gpusim: kernel %s (regs=%d shared=%d block=%d) exceeds SM resources of %s",
			k.Name, k.Regs(), k.SharedBytes, launch.Block, g.cfg.Name)
	}
	return nil
}

// runLaunch simulates one (possibly concurrent) launch whose runSpecs are
// already admitted — fed by producers or from a recorded trace — and
// accumulates its statistics.
func (g *GPU) runLaunch(rss []*runSpec) error {
	d := newDRAM(&g.cfg)
	ls := &launchState{
		g:      g,
		specs:  rss,
		tally:  newTally(len(rss)),
		dram:   d,
		ms:     newMemSubsystem(&g.cfg, g.l2, d, g.sharing),
		issueC: g.cfg.issueCycles(),
	}
	if g.obsC != nil {
		ls.lo = newLaunchObs(g.cfg.NumSMs)
		d.lo = ls.lo
	}
	for _, sp := range rss {
		ls.pending += sp.launch.Grid
	}
	for i := 0; i < g.cfg.NumSMs; i++ {
		ls.sms = append(ls.sms, &smRT{caches: g.sms[i]})
	}
	// Snapshot cache counters so per-launch deltas can be accumulated.
	snap := g.cacheSnapshot()

	for _, sm := range ls.sms {
		if err := ls.fill(sm, ls.now); err != nil {
			return err
		}
	}
	if err := ls.run(); err != nil {
		return err
	}

	dramBytes, dramTxns := ls.dram.traffic()
	g.Stats.Merge(&ls.shared)
	g.Stats.Cycles += ls.now
	g.Stats.DRAMBytes += dramBytes
	g.Stats.DRAMTxns += dramTxns
	g.accumCacheDeltas(snap)
	if g.obsC != nil {
		g.obsC.flushObs(ls.lo, ls.now)
	}

	for _, sp := range ls.specs {
		// Fold the kernel's tally into the totals, then into its
		// per-kernel entry with what the launch adds: its cycles, and its
		// DRAM traffic, which is shared and so attributed on the
		// single-kernel path only.
		ks := ls.tally[sp.idx]
		ks.Launches, ks.CTAs = 1, sp.launch.Grid
		g.Stats.Merge(ks)
		ks.Cycles = ls.now
		ks.PeakBytesPerCycle = g.Stats.PeakBytesPerCycle
		if len(ls.specs) == 1 {
			ks.DRAMBytes, ks.DRAMTxns = dramBytes, dramTxns
		}
		g.Stats.Kernel(sp.k.Name).Merge(ks)
	}
	return nil
}

type cacheCounts struct{ l1h, l1m, l2h, l2m, ch, cm, th, tm uint64 }

func (g *GPU) cacheSnapshot() cacheCounts {
	var s cacheCounts
	for _, smc := range g.sms {
		if smc.l1 != nil {
			s.l1h += smc.l1.hits
			s.l1m += smc.l1.misses
		}
		if smc.constC != nil {
			s.ch += smc.constC.hits
			s.cm += smc.constC.misses
		}
		if smc.texC != nil {
			s.th += smc.texC.hits
			s.tm += smc.texC.misses
		}
	}
	if g.l2 != nil {
		s.l2h = g.l2.hits
		s.l2m = g.l2.misses
	}
	return s
}

func (g *GPU) accumCacheDeltas(before cacheCounts) {
	after := g.cacheSnapshot()
	g.Stats.L1Hits += after.l1h - before.l1h
	g.Stats.L1Misses += after.l1m - before.l1m
	g.Stats.L2Hits += after.l2h - before.l2h
	g.Stats.L2Misses += after.l2m - before.l2m
	g.Stats.ConstHits += after.ch - before.ch
	g.Stats.ConstMisses += after.cm - before.cm
	g.Stats.TexHits += after.th - before.th
	g.Stats.TexMisses += after.tm - before.tm
}
