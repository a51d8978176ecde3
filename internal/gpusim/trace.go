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
// Validity. Replay reproduces full execution bit-identically on
// gpusim.Stats only when the replay configuration cannot change the
// functional streams. The explicit predicate (Replayable) requires only
// single-kernel launches (the concurrent-kernel path interleaves
// dispatch cursors across kernels), no atomics (an atomic's observed
// value depends on the warp schedule, and every timing knob changes the
// schedule), and every PC fits the trace encoding.
//
// Any cross-config replay — even one that only changes DRAM channel
// count — relies on the functional streams being schedule-independent:
// a latency change reorders warp issue, so a kernel whose loads observe
// values concurrently stored by other warps in the same launch could
// record a stream the new schedule would not produce. Live execution
// stakes its own bit-identity on exactly this workload invariant (the
// producer runs CTAs in index order, whatever the timing schedule):
// cross-CTA communication within a launch is absent or benign
// same-value, warps of a CTA communicate through barriers, and
// synchronization between launches happens through the host. Atomics —
// the one schedule-visible instruction class — invalidate the trace at
// capture. Under that invariant the streams are also independent of
// CTA→SM placement, so traces replay across SM-count and occupancy
// changes too. internal/core pins the invariant for every benchmark by
// recording under perturbed schedules (schedule_test.go), and pins
// replay's bit-identity across the experiment configurations (Figure 4
// channels, Figure 5 architectures, the Plackett-Burman rows).
//
// A trace that is not replayable is a normal condition, not an error:
// callers fall back to full execution.

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
// saw nothing unrecordable — under any configuration (see the validity
// discussion at the top of this file). A non-nil error carries the
// reason (atomics, concurrent kernels, ...).
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
// it does not perturb Stats.
func (g *GPU) Capture() *TraceBuilder {
	tb := &TraceBuilder{rt: &RunTrace{cfg: g.cfg}}
	g.capture = tb
	return tb
}

// Replay drives the GPU's timing model from a recorded trace instead of
// executing kernels. It fails up front when the trace is not replayable
// (see RunTrace.Replayable), and returns an error when a launch's
// recording does not match its geometry or a warp's stream cannot be
// decoded (a truncated one, say).
func (g *GPU) Replay(rt *RunTrace) error {
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
		sp := &runSpec{
			idx: 0, k: lt.Kernel, launch: lt.Launch, trace: lt,
			kStats: NewStats(g.cfg.Name),
		}
		if err := g.runLaunch([]*runSpec{sp}); err != nil {
			return err
		}
	}
	return nil
}

// usesAtomics reports whether the kernel contains an atomic instruction.
func usesAtomics(k *isa.Kernel) bool {
	for i := range k.Instrs {
		if k.Instrs[i].Op == isa.OpAtom {
			return true
		}
	}
	return false
}
