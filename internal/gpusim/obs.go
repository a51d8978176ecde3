package gpusim

import (
	"strconv"

	"repro/internal/obs"
)

// Telemetry for the timing core follows a two-level design so the event
// loop never touches an atomic:
//
//   - launchObs is a per-launch tally of plain integers. The sequential
//     loop owns it outright; on the epoch engine every mutable field is
//     either a per-SM array slot (each SM belongs to exactly one worker)
//     or coordinator-only state, so no synchronization is needed beyond
//     the worker barrier's existing happens-before edges.
//   - gpuCounters caches the registry instruments once per SetObs call
//     — including the per-SM labeled counters — and flushObs folds a
//     finished launch's tallies into them. Registry lookups therefore
//     happen once per attach, not per launch and certainly not per cycle.
//
// When no registry is attached (GPU.obsC == nil) no launchObs is
// allocated and every collection site reduces to one predictable
// nil-check on a hoisted pointer.

// launchObs tallies one launch's timing telemetry.
type launchObs struct {
	// Per-SM, indexed by SM number. Written only by the SM's owning
	// goroutine (sequential loop or the epoch worker that shards it).
	busy      []uint64 // cycles the SM issued a warp instruction
	stallPort []uint64 // cycles lost to issue-port back-pressure (issueFreeAt)
	stallSkip []uint64 // cycles skipped via the scheduler's skipUntil bound
	stallWarp []uint64 // scheduler scans that found no issuable warp

	// Per-SM, epoch path only (epoch.go); same ownership rule as above.
	epochParks []uint64 // loads parked awaiting coordinator pricing
	epochHolds []uint64 // SM freezes at a full-CTA retire

	// Per-worker, indexed by worker id; allocated by the epoch engine at
	// launch start and written only by the owning worker. Sampled
	// barrier wait, extrapolated ×barrierSample.
	barrierWaitNs []uint64

	// Coordinator-only (epoch replay / sequential loop).
	skipAhead        uint64 // cycles elided by event-driven clock jumps
	dramBacklog      uint64 // summed channel backlog at enqueue, in cycles
	dramMaxBacklog   uint64 // worst single-channel backlog observed
	dramAccesses     uint64 // line transactions enqueued
	barrierCrossings uint64 // coordinator rounds on the epoch path, one barrier each

	// Registry histograms, observed directly (atomic, concurrency-safe):
	// raw per-worker barrier-wait samples and per-round epoch advance.
	// Cached here so collection sites never take the registry mutex.
	waitHist  *obs.Histogram
	roundHist *obs.Histogram
}

func newLaunchObs(numSMs int, c *gpuCounters) *launchObs {
	return &launchObs{
		busy:       make([]uint64, numSMs),
		stallPort:  make([]uint64, numSMs),
		stallSkip:  make([]uint64, numSMs),
		stallWarp:  make([]uint64, numSMs),
		epochParks: make([]uint64, numSMs),
		epochHolds: make([]uint64, numSMs),
		waitHist:   c.waitHist,
		roundHist:  c.roundHist,
	}
}

// barrierSample is the epoch workers' barrier sampling period: one in
// every barrierSample waits is timed and extrapolated, keeping clock
// reads off the common path.
const barrierSample = 64

// gpuCounters is the registry-instrument cache flushObs writes into.
type gpuCounters struct {
	// Per-SM, labeled {sm=N}. smCycles is the total simulated cycles of
	// every launch the SM took part in, so busy+idle == smCycles holds
	// per SM even when one registry observes GPUs with different SM
	// counts (a sweep mixing 8-SM and 30-SM configurations).
	busy, idle, smCycles []*obs.Counter

	stallPort, stallSkip, stallWarp *obs.Counter
	skipAhead                       *obs.Counter
	cycles, launches                *obs.Counter

	dramBacklog    *obs.Counter
	dramMaxBacklog *obs.Gauge
	dramAccesses   *obs.Counter

	barrierWaitNs, barrierCrossings *obs.Counter

	epochRounds, epochParks, epochHolds *obs.Counter

	waitHist  *obs.Histogram
	roundHist *obs.Histogram
}

func newGPUCounters(r *obs.Registry, numSMs int) *gpuCounters {
	c := &gpuCounters{
		stallPort:        r.Counter("gpusim.stall.port_cycles"),
		stallSkip:        r.Counter("gpusim.stall.skip_cycles"),
		stallWarp:        r.Counter("gpusim.stall.sched_cycles"),
		skipAhead:        r.Counter("gpusim.clock.skipped_cycles"),
		cycles:           r.Counter("gpusim.cycles"),
		launches:         r.Counter("gpusim.launches"),
		dramBacklog:      r.Counter("gpusim.dram.backlog_cycles"),
		dramMaxBacklog:   r.Gauge("gpusim.dram.max_backlog_cycles"),
		dramAccesses:     r.Counter("gpusim.dram.accesses"),
		barrierWaitNs:    r.Counter("gpusim.barrier.wait_ns"),
		barrierCrossings: r.Counter("gpusim.barrier.crossings"),
		epochRounds:      r.Counter("gpusim.epoch.rounds"),
		epochParks:       r.Counter("gpusim.epoch.parked_loads"),
		epochHolds:       r.Counter("gpusim.epoch.retire_holds"),
		waitHist:         r.Histogram("gpusim.barrier.wait_sample_ns"),
		roundHist:        r.Histogram("gpusim.epoch.round_cycles"),
	}
	for s := 0; s < numSMs; s++ {
		label := strconv.Itoa(s)
		c.busy = append(c.busy, r.Counter(obs.Name("gpusim.sm.busy_cycles", "sm", label)))
		c.idle = append(c.idle, r.Counter(obs.Name("gpusim.sm.idle_cycles", "sm", label)))
		c.smCycles = append(c.smCycles, r.Counter(obs.Name("gpusim.sm.cycles", "sm", label)))
	}
	return c
}

// SetObs attaches (or, with nil, detaches) a metrics registry. The
// registry deliberately lives outside Config — Config values key the
// experiment layer's memoization maps — and the telemetry stays out of
// Stats, whose DeepEqual comparisons back the determinism tests. Counter
// names: per-SM gpusim.sm.{busy,idle}_cycles{sm=N} (busy+idle sums to
// gpusim.cycles for every SM), stall cycles by reason under
// gpusim.stall.*, elided clock jumps, DRAM channel backlog, sampled
// per-worker shard-barrier wait (gpusim.barrier.wait_ns summed, raw
// samples in the gpusim.barrier.wait_sample_ns histogram) and barrier
// crossings, and the epoch engine's rounds (equal to the crossings),
// parked loads, retire holds and per-round clock advance
// (gpusim.epoch.*).
func (g *GPU) SetObs(r *obs.Registry) {
	if r == nil {
		g.obsC = nil
		return
	}
	g.obsC = newGPUCounters(r, g.cfg.NumSMs)
}

// flushObs folds a finished launch's tallies into the registry. Idle is
// derived, not counted: every launch cycle an SM did not issue is idle,
// so busy+idle equals the launch's cycle count per SM by construction.
func (c *gpuCounters) flushObs(lo *launchObs, launchCycles uint64) {
	var port, skip, warp, parks, holds uint64
	for s := range lo.busy {
		c.busy[s].Add(lo.busy[s])
		c.idle[s].Add(launchCycles - lo.busy[s])
		c.smCycles[s].Add(launchCycles)
		port += lo.stallPort[s]
		skip += lo.stallSkip[s]
		warp += lo.stallWarp[s]
		parks += lo.epochParks[s]
		holds += lo.epochHolds[s]
	}
	c.stallPort.Add(port)
	c.stallSkip.Add(skip)
	c.stallWarp.Add(warp)
	c.skipAhead.Add(lo.skipAhead)
	c.cycles.Add(launchCycles)
	c.launches.Inc()
	c.dramBacklog.Add(lo.dramBacklog)
	c.dramMaxBacklog.SetMax(int64(lo.dramMaxBacklog))
	c.dramAccesses.Add(lo.dramAccesses)
	var wait uint64
	for _, w := range lo.barrierWaitNs {
		wait += w
	}
	c.barrierWaitNs.Add(wait)
	c.barrierCrossings.Add(lo.barrierCrossings)
	c.epochRounds.Add(lo.barrierCrossings)
	c.epochParks.Add(parks)
	c.epochHolds.Add(holds)
}
