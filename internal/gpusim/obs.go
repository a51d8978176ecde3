package gpusim

import (
	"strconv"

	"repro/internal/obs"
)

// Telemetry for the timing core follows a two-level design so the event
// loop never touches an atomic:
//
//   - launchObs is a per-launch tally of plain integers, which the event
//     loop owns outright.
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
	// Per-SM, indexed by SM number. The four partition the launch's
	// cycles: an SM is busy or stalled at the scheduler on each cycle it
	// picks at, and between picks it waits on its issue port, then on
	// skipUntil; the final DRAM drain counts as skip. The loop tallies
	// each pick at its own cycle as the SM runs ahead of the clock
	// (runAhead), so the tallies are those of a scan of every SM on
	// every cycle.
	busy      []uint64 // cycles the SM issued a warp instruction
	stallPort []uint64 // cycles lost to issue-port back-pressure (issueFreeAt)
	stallSkip []uint64 // cycles skipped via the scheduler's skipUntil bound
	stallWarp []uint64 // scheduler scans that found no issuable warp

	// Per-SM: the first cycle not yet tallied.
	tallied []uint64

	skipAhead      uint64 // cycles the clock jumped over (SetObs)
	dramBacklog    uint64 // summed channel backlog at enqueue, in cycles
	dramMaxBacklog uint64 // worst single-channel backlog observed
	dramAccesses   uint64 // line transactions enqueued
}

func newLaunchObs(numSMs int) *launchObs {
	return &launchObs{
		busy:      make([]uint64, numSMs),
		stallPort: make([]uint64, numSMs),
		stallSkip: make([]uint64, numSMs),
		stallWarp: make([]uint64, numSMs),
		tallied:   make([]uint64, numSMs),
	}
}

// idle tallies the cycles from SM si's last tally up to cycle to, on
// which the SM did not pick: port stalls while its issue port stayed
// busy, skips after. The SM's state does not change between its picks,
// so issueFreeAt is the one its last step settled.
func (lo *launchObs) idle(si int, to, issueFreeAt uint64) {
	from := lo.tallied[si]
	if port := min(issueFreeAt, to); port > from {
		lo.stallPort[si] += port - from
		from = port
	}
	lo.stallSkip[si] += to - from
	lo.tallied[si] = to
}

// visited tallies SM si's pick at cycle now: an issue, or an empty
// scheduler scan.
func (lo *launchObs) visited(si int, now uint64, issued bool) {
	if issued {
		lo.busy[si]++
	} else {
		lo.stallWarp[si]++
	}
	lo.tallied[si] = now + 1
}

// gpuCounters is the registry-instrument cache flushObs writes into.
type gpuCounters struct {
	// Per-SM, labeled {sm=N}. smCycles is the total simulated cycles of
	// every launch the SM took part in, so busy+idle == smCycles holds
	// per SM even when one registry observes GPUs with different SM
	// counts (a sweep mixing 8-SM and 30-SM configurations).
	busy, idle, smCycles   []*obs.Counter
	smPort, smSkip, smWarp []*obs.Counter

	stallPort, stallSkip, stallWarp *obs.Counter
	skipAhead                       *obs.Counter
	cycles, launches                *obs.Counter
	overlapped                      *obs.Counter

	dramBacklog    *obs.Counter
	dramMaxBacklog *obs.Gauge
	dramAccesses   *obs.Counter
}

func newGPUCounters(r *obs.Registry, numSMs int) *gpuCounters {
	c := &gpuCounters{
		stallPort:      r.Counter("gpusim.stall.port_cycles"),
		stallSkip:      r.Counter("gpusim.stall.skip_cycles"),
		stallWarp:      r.Counter("gpusim.stall.sched_cycles"),
		skipAhead:      r.Counter("gpusim.clock.skipped_cycles"),
		cycles:         r.Counter("gpusim.cycles"),
		launches:       r.Counter("gpusim.launches"),
		overlapped:     r.Counter("gpusim.launch.overlapped"),
		dramBacklog:    r.Counter("gpusim.dram.backlog_cycles"),
		dramMaxBacklog: r.Gauge("gpusim.dram.max_backlog_cycles"),
		dramAccesses:   r.Counter("gpusim.dram.accesses"),
	}
	for s := 0; s < numSMs; s++ {
		label := strconv.Itoa(s)
		c.busy = append(c.busy, r.Counter(obs.Name("gpusim.sm.busy_cycles", "sm", label)))
		c.idle = append(c.idle, r.Counter(obs.Name("gpusim.sm.idle_cycles", "sm", label)))
		c.smCycles = append(c.smCycles, r.Counter(obs.Name("gpusim.sm.cycles", "sm", label)))
		c.smPort = append(c.smPort, r.Counter(obs.Name("gpusim.sm.port_cycles", "sm", label)))
		c.smSkip = append(c.smSkip, r.Counter(obs.Name("gpusim.sm.skip_cycles", "sm", label)))
		c.smWarp = append(c.smWarp, r.Counter(obs.Name("gpusim.sm.sched_cycles", "sm", label)))
	}
	return c
}

// SetObs attaches (or, with nil, detaches) a metrics registry. The
// registry deliberately lives outside Config — Config values key the
// experiment layer's memoization maps — and the telemetry stays out of
// Stats, whose DeepEqual comparisons back the determinism tests. Counter
// names:
//
//   - per SM, gpusim.sm.{busy,idle}_cycles{sm=N}, whose sum is the SM's
//     gpusim.sm.cycles{sm=N}, and the stall cycles by reason,
//     gpusim.sm.{port,skip,sched}_cycles{sm=N}; busy, port, skip and
//     sched partition the SM's cycles (launchObs);
//   - the stall totals over SMs, gpusim.stall.{port,skip,sched}_cycles;
//   - gpusim.clock.skipped_cycles, the cycles the event loop's clock
//     jumps over between the global events it stops at (run: a parked
//     memory or CTA-completing step, or an SM's first or emptied visit;
//     the final DRAM drain aside). SMs pick on many of those cycles
//     while they run ahead of the clock, so it does not count cycles on
//     which no SM picked;
//   - DRAM channel backlog and accesses (gpusim.dram.*);
//   - gpusim.launch.overlapped, the live launches whose producers started
//     while an earlier launch's timing was still pending (feed.go). It
//     depends on host scheduling, so unlike the rest it is not a
//     function of the trace and configuration.
//
// SetObs waits for pending launches first (Wait), so a launch reports to
// the registry that was attached when it started.
func (g *GPU) SetObs(r *obs.Registry) {
	_ = g.Wait() // a failure stays for the next Launch or Wait
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
	var port, skip, warp uint64
	for s := range lo.busy {
		c.busy[s].Add(lo.busy[s])
		c.idle[s].Add(launchCycles - lo.busy[s])
		c.smCycles[s].Add(launchCycles)
		c.smPort[s].Add(lo.stallPort[s])
		c.smSkip[s].Add(lo.stallSkip[s])
		c.smWarp[s].Add(lo.stallWarp[s])
		port += lo.stallPort[s]
		skip += lo.stallSkip[s]
		warp += lo.stallWarp[s]
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
}
