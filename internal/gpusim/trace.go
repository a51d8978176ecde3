package gpusim

import (
	"fmt"

	"repro/internal/isa"
)

// Trace capture and replay. Every live launch records its functional
// half — per-warp instruction streams, masks and addresses
// (isa.LaunchTrace) — on its producer goroutine, and the timing loop
// runs on that recording (feed.go). A GPU with a TraceBuilder attached
// (Capture) keeps each launch's recording, compacted, in a RunTrace
// instead of dropping it. A later GPU built for a *different* timing
// configuration can Replay the RunTrace: the event loop, scheduler,
// coalescer, caches and DRAM model run exactly as in live execution, on
// the same isa.ReplayWarps, so kernels are never re-executed and no
// benchmark memory is allocated.
//
// The rule: a benchmark's trace replays bit-identically under every
// configuration. The producer runs a launch's grid in CTA index order on
// the benchmark's own memory whatever the configuration, so the recorded
// streams — an atomic's returned value included — depend on the
// benchmark's inputs alone, and a live run times exactly the streams a
// replay reads. internal/core pins the rule for every benchmark, by
// recording under perturbed schedules (schedule_test.go) and by
// comparing replays with live runs across the experiment configurations
// (Figure 4 channels, Figure 5 architectures, the Plackett-Burman rows).
//
// Replay runs one kernel per launch, so a multi-kernel LaunchConcurrent
// on a capturing GPU invalidates the capture, as does a failed launch;
// Replayable then reports why.

// RunTrace is the functional recording of one benchmark run: every
// kernel launch the benchmark issued, in order, under the configuration
// it was captured with. Replays only read the trace, so one RunTrace may
// serve any number of concurrent replays.
type RunTrace struct {
	cfg      Config
	launches []*isa.LaunchTrace
	invalid  string
	bytes    int64
}

// Bytes reports the retained size of the trace's slabs and headers.
func (rt *RunTrace) Bytes() int64 { return rt.bytes }

// NumLaunches reports how many kernel launches the trace holds.
func (rt *RunTrace) NumLaunches() int { return len(rt.launches) }

// Replayable reports whether the trace can drive replays — i.e. capture
// saw nothing unrecordable — under any configuration (see the rule at the
// top of this file). A non-nil error carries the reason (a concurrent
// launch or a failed one).
func (rt *RunTrace) Replayable() error {
	if rt.invalid != "" {
		return fmt.Errorf("gpusim: trace not replayable: %s", rt.invalid)
	}
	return nil
}

// Export decomposes the trace into its persistable parts — the capture
// configuration, the per-launch functional recordings, and the invalid
// reason (empty when replayable) — for the disk artifact store
// (internal/store). The launches are the live slabs, not copies; callers
// must treat them as read-only, exactly like replays do.
func (rt *RunTrace) Export() (cfg Config, launches []*isa.LaunchTrace, invalid string) {
	return rt.cfg, rt.launches, rt.invalid
}

// ImportRunTrace reassembles a RunTrace from parts produced by Export
// (typically decoded from disk), recomputing its retained size.
func ImportRunTrace(cfg Config, launches []*isa.LaunchTrace, invalid string) *RunTrace {
	rt := &RunTrace{cfg: cfg, launches: launches, invalid: invalid}
	for _, lt := range launches {
		rt.bytes += lt.Bytes()
	}
	return rt
}

// TraceBuilder accumulates a RunTrace while a capturing GPU runs a
// benchmark. Obtain one with GPU.Capture before the run and its trace
// with Trace after.
type TraceBuilder struct {
	rt *RunTrace
}

// Trace returns the accumulated trace. The trace answers Replayable
// truthfully even when capture saw something unrecordable — it is then
// permanently unreplayable, with the reason preserved.
func (tb *TraceBuilder) Trace() *RunTrace { return tb.rt }

func (tb *TraceBuilder) add(lt *isa.LaunchTrace) {
	if tb.rt.invalid != "" {
		return
	}
	tb.rt.launches = append(tb.rt.launches, lt)
	tb.rt.bytes += lt.Bytes()
}

// invalidate marks the trace permanently non-replayable and drops any
// recorded launches: a partial trace must never drive a replay.
func (tb *TraceBuilder) invalidate(reason string) {
	if tb.rt.invalid == "" {
		tb.rt.invalid = reason
	}
	tb.rt.launches = nil
	tb.rt.bytes = 0
}

// Capture attaches a trace builder to the GPU: the recording of every
// subsequent launch is kept in the returned builder's RunTrace. Keeping
// it does not perturb Stats. Pending launches are waited for first
// (Wait), and the trace is complete after the next Wait.
func (g *GPU) Capture() *TraceBuilder {
	_ = g.Wait() // a failure stays for the next Launch or Wait
	tb := &TraceBuilder{rt: &RunTrace{cfg: g.cfg}}
	g.capture = tb
	return tb
}

// Replay drives the GPU's timing model from a recorded trace instead of
// executing kernels, on the calling goroutine, after waiting for pending
// launches (Wait). It fails up front when the trace is not replayable
// (see RunTrace.Replayable), and returns an error when a launch's
// recording does not match its geometry, a warp's stream cannot be
// decoded (a truncated one, say) or the event loop panics.
func (g *GPU) Replay(rt *RunTrace) error {
	if err := g.Wait(); err != nil {
		return err
	}
	if err := rt.Replayable(); err != nil {
		return err
	}
	for _, lt := range rt.launches {
		if err := g.admit(lt.Kernel, lt.Launch); err != nil {
			return err
		}
		if want := lt.Launch.Grid * lt.WarpsPerCTA(); len(lt.Warps) != want {
			return fmt.Errorf("gpusim: trace of kernel %s holds %d warp streams, its launch has %d warps",
				lt.Kernel.Name, len(lt.Warps), want)
		}
		sp := &runSpec{idx: 0, k: lt.Kernel, launch: lt.Launch, trace: lt}
		if err := g.timeLaunch([]*runSpec{sp}); err != nil {
			return err
		}
	}
	return nil
}
