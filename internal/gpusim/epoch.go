package gpusim

import (
	"sync"
	"time"

	"repro/internal/isa"
)

// The epoch-parallel engine is the launch path for Config.ShardWorkers >
// 1. SMs are sharded across worker goroutines, and each worker advances
// its SMs up to EpochCycles cycles on SM-local state alone, buffering
// every step that needs the launch-global memory system into a per-SM
// log with its issue cycle. At the epoch boundary the coordinator merges
// the logs and replays them in (cycle, SM index) order through the
// caches, DRAM channels and sharing tracker, which is exactly the order
// the sequential loop visits them, so results stay bit-identical with
// one barrier crossing per epoch round. Within a cycle the sequential
// order is exec(sm0), price(sm0), exec(sm1), …, and execution never
// reads pricing state, so executing SMs concurrently and pricing
// afterwards observes the same values everywhere; the per-worker stats
// shards are commutative sums merged in worker order at the end.
//
// Warps replay recorded streams on every launch, live or replayed: a
// live kernel runs on its producer goroutine (feed.go), never on a
// shard. So SMs share no functional memory, and epochs run at full
// length whatever the kernels store.
//
// What makes running ahead safe:
//
//   - Memory pricing. A warp that issues a load cannot know its latency
//     until the coordinator replays the access (caches and DRAM channels
//     are launch-global). The warp parks: it blocks, and the SM never
//     advances past the warp's parkBound — the issue cycle plus the
//     memory subsystem's per-space λ, a proven lower bound on any latency
//     priceLines can return (memsys.go). When the coordinator prices the
//     load it computes the true readyAt, which λ guarantees is at or past
//     every cycle the SM already simulated, so no issue opportunity was
//     missed. Global/local stores need no park — their warp latency is
//     architecturally ALULatency — but their lines still replay in order
//     for bandwidth and cache state.
//   - Dispatch. Retiring the last warp of a CTA frees SM resources and
//     pulls new CTAs from the launch-wide dispatch cursors. The SM
//     freezes (held) at the retire cycle and logs an event; the
//     coordinator performs the retire and refill at the recorded cycle
//     during replay, in global order, so CTA placement matches the
//     sequential schedule. Partial retires (other warps of the CTA still
//     live) touch only CTA-local state and happen in place. A refill
//     that finds the kernel's producer failed ends the launch with the
//     producer's error.
//   - Faults. A stream that cannot be decoded freezes the SM and logs
//     the error; the coordinator returns the fault of the globally
//     earliest (cycle, SM) — the one the sequential loop would have hit
//     — and discards the rest.
//
// The coordinator's horizon H is the minimum SM clock; events strictly
// below H are complete (every SM has simulated past them) and replay in
// global order. Rounds advance the shared target clock H+E, so a worker
// whose SMs are frozen on parks still crosses the barrier and resumes
// when their events are replayed.

// epochEvent is one buffered step awaiting coordinator replay.
type epochEvent struct {
	kind   uint8
	store  bool // evMem: priced as a store (global/local store ops)
	parked bool // evMem: this event parked its warp; replay must wake it
	space  isa.Space
	cycle  uint64  // issue cycle, global order key
	w      *warpRT // evMem: issuing warp; evRetire: the exiting warp
	cta    int     // evMem: CTA index for the sharing tracker
	off    int     // evMem: coalesced line range in the SM's slab
	end    int
	err    error // evFault
}

const (
	evMem    uint8 = iota // replay lines through the memory system
	evRetire              // full-CTA retire: dispatch cursors + refill
	evFault               // undecodable stream at the recorded cycle
)

// epochSM is one SM's epoch-execution state: its local clock, its event
// log, and the freeze conditions that stop it from running ahead.
type epochSM struct {
	sm  *smRT
	now uint64 // next cycle this SM will simulate

	queue []epochEvent // cycle-monotone event log; head is the replay cursor
	head  int
	slab  []uint64 // line storage backing queued evMem events

	coal   coalescer // per-SM: ms.coal belongs to the serialized paths
	step   issuedStep
	parked int  // warps blocked awaiting coordinator pricing
	held   bool // frozen at a full retire or fault until replayed
}

// runEpoch executes the launch with SMs sharded across workers (worker w
// owns SMs w, w+workers, …; the caller doubles as worker 0 and
// coordinator), synchronizing once per epoch round. Callers guarantee
// workers ≥ 2 and ≤ len(ls.sms), epoch ≥ 1.
func (ls *launchState) runEpoch(workers, epoch int) error {
	nsm := len(ls.sms)
	if ls.pending == 0 {
		return nil
	}
	shards := make([][]*Stats, workers)
	for w := range shards {
		shards[w] = newTally(len(ls.specs))
	}

	eps := make([]*epochSM, nsm)
	for i, sm := range ls.sms {
		eps[i] = &epochSM{sm: sm, coal: newCoalescer(&ls.g.cfg)}
	}

	var (
		bar     = newSpinBarrier(workers)
		wg      sync.WaitGroup
		stopped bool  // written by the coordinator inside its exclusive window
		runErr  error // deadlock, as in run()
		execErr error // undecodable stream or failed producer, as in run()

		// The coordinator's clocks. target is written in its exclusive
		// window and read by workers after the barrier (the barrier's
		// atomics provide the happens-before edges).
		replayedTo uint64          // every event below is replayed
		target     = uint64(epoch) // workers advance toward this cycle
	)
	lo := ls.lo
	if lo != nil {
		lo.barrierWaitNs = make([]uint64, workers)
	}

	// waitA crosses the barrier that ends a round's SM execution, timing
	// this worker's wait — how long it idles for the slowest shard — on a
	// 1-in-barrierSample schedule keyed to the worker's own crossing
	// count: extrapolated into the worker's launchObs slot, raw into the
	// fleet-wide histogram. Per-worker slots keep it race-free.
	waitA := func(wid int, crossing uint64, sense *int32) {
		if lo != nil && crossing%barrierSample == 0 {
			t0 := time.Now()
			bar.wait(sense)
			d := uint64(time.Since(t0))
			lo.barrierWaitNs[wid] += d * barrierSample
			lo.waitHist.Observe(d)
		} else {
			bar.wait(sense)
		}
	}

	phaseA := func(wid int) {
		for s := wid; s < nsm; s += workers {
			ls.advanceEpochSM(eps[s], s, shards[wid], target)
		}
	}

	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			var sense int32
			for crossing := uint64(0); ; crossing++ {
				phaseA(wid)
				waitA(wid, crossing, &sense) // phase A done everywhere
				bar.wait(&sense)             // coordinator's replay done
				if stopped {
					return
				}
			}
		}(w)
	}

	var sense int32
	for round := uint64(0); ; round++ {
		phaseA(0)
		waitA(0, round, &sense)
		// Exclusive window: only the coordinator touches launch state here.
		horizon := eps[0].now
		for _, ep := range eps[1:] {
			if ep.now < horizon {
				horizon = ep.now
			}
		}
		processed, finished := ls.replayEpochEvents(eps, horizon, &execErr)
		if lo != nil {
			lo.barrierCrossings++
			lo.roundHist.Observe(horizon - replayedTo)
		}
		replayedTo = horizon
		switch {
		case execErr != nil || finished:
			stopped = true
		default:
			if t := horizon + uint64(epoch); t > target {
				target = t
			}
			// A round that replayed nothing with every SM free means the
			// whole launch is between events: jump the target straight to
			// the next locally-issuable cycle (the epoch counterpart of
			// the sequential loop's nextEvent hop), or report deadlock if
			// there is none.
			if processed == 0 && epochAllFree(eps) {
				next := blockedAt
				for _, ep := range eps {
					if n := smNextIssue(ep.sm, ep.now); n < next {
						next = n
					}
				}
				if next == blockedAt {
					ls.now = horizon
					runErr = ls.deadlock()
					stopped = true
				} else if t := next + uint64(epoch); t > target {
					if lo != nil && next > horizon {
						lo.skipAhead += next - horizon - 1
					}
					target = t
				}
			}
		}
		bar.wait(&sense)
		if stopped {
			break
		}
	}
	wg.Wait()
	if execErr != nil {
		return execErr
	}
	if runErr != nil {
		return runErr
	}

	// Deterministic merge: shards in worker order. All shard counters are
	// commutative sums, so the tally equals the sequential loop's.
	for _, shard := range shards {
		for i, ks := range shard {
			ls.tally[i].Merge(ks)
		}
	}
	ls.now = ls.dram.drainedBy(ls.now)
	return nil
}

// advanceEpochSM runs one SM forward to the round's target cycle (or its
// nearest freeze bound) on purely SM-local state, logging everything that
// needs the launch-global memory system. Runs concurrently across shards;
// it touches only the SM, its warps/CTAs, and the worker's stats shard.
func (ls *launchState) advanceEpochSM(ep *epochSM, si int, tally []*Stats, target uint64) {
	if ep.held {
		return
	}
	sm := ep.sm
	lo := ls.lo
	limit := target
	if ep.parked > 0 {
		for _, w := range sm.warps {
			if w.parked && w.parkBound < limit {
				limit = w.parkBound
			}
		}
	}
	for ep.now < limit {
		now := ep.now
		if sm.issueFreeAt > now || sm.skipUntil > now {
			// Port back-pressure or an empty scheduler scan: jump straight
			// to the next locally-issuable cycle. pick mutates the cursor
			// only on success, so eliding the unvisited cycles is
			// schedule-exact.
			next := smNextIssue(sm, now)
			if next <= now {
				next = now + 1
			}
			stop := next
			if stop > limit {
				stop = limit
			}
			if lo != nil {
				if sm.issueFreeAt > now {
					lo.stallPort[si] += stop - now
				} else {
					lo.stallSkip[si] += stop - now
				}
			}
			ep.now = stop
			continue
		}
		w := ls.g.sched.pick(sm, now)
		if w == nil {
			if lo != nil {
				lo.stallWarp[si]++
			}
			continue // pick recorded sm.skipUntil; next iteration jumps
		}
		if err := ls.execWarp(sm, w, tally, &ep.step, now); err != nil {
			ep.queue = append(ep.queue, epochEvent{kind: evFault, cycle: now, err: err})
			ep.held = true
			ep.now = now + 1
			return
		}
		if lo != nil {
			lo.busy[si]++
		}
		if ep.step.mem {
			if bound := ls.logEpochMem(ep, si, w, now); bound != 0 && bound < limit {
				limit = bound
			}
		} else {
			ls.settleTiming(sm, &ep.step, now)
		}
		if w.done && !w.retired {
			if w.cta.live > 1 {
				// Partial retire: only CTA-local state, safe in place; it
				// never refills, so it cannot fail.
				_ = ls.retire(sm, w, now)
			} else {
				ep.queue = append(ep.queue, epochEvent{kind: evRetire, cycle: now, w: w})
				ep.held = true
				if lo != nil {
					lo.epochHolds[si]++
				}
				ep.now = now + 1
				return
			}
		}
		ep.now = now + 1
	}
}

// logEpochMem buffers a memory-system step: coalesce SM-locally, copy the
// lines into the SM's slab (the coalescer scratch is reused next step),
// and settle what is locally known. Warps whose latency depends on the
// replay — loads, and const/tex stores, whose pricing follows the load
// path — park; global/local stores complete at ALULatency. Returns the
// new park bound, or 0 if the warp did not park.
func (ls *launchState) logEpochMem(ep *epochSM, si int, w *warpRT, now uint64) uint64 {
	sm := ep.sm
	st := &ep.step.st
	space := st.Instr.Space
	lines := ep.coal.lines(st.Accesses, laneBaseOf(space))
	store := isStoreOp(st.Instr.Op)
	sm.issueFreeAt = now + ep.step.issue + uint64(len(lines)-1)
	off := len(ep.slab)
	ep.slab = append(ep.slab, lines...)
	ep.queue = append(ep.queue, epochEvent{
		kind: evMem, store: store, space: space, cycle: now, w: w,
		cta: w.cta.index, off: off, end: len(ep.slab),
	})
	if store && space != isa.SpaceConst && space != isa.SpaceTex {
		w.readyAt = now + uint64(ls.g.cfg.ALULatency)
		sm.syncReady(w)
		return 0
	}
	if w.done {
		return 0 // a done warp never issues again; no latency to wait on
	}
	// Only this event's replay may wake the warp: the warp pointer alone
	// is ambiguous — an earlier same-warp store event replayed after this
	// park would otherwise wake it with the store's latency.
	ep.queue[len(ep.queue)-1].parked = true
	w.parked = true
	w.blocked = true
	w.parkBound = now + ls.ms.minLoadLatency(space)
	sm.syncReady(w)
	ep.parked++
	if lo := ls.lo; lo != nil {
		lo.epochParks[si]++
	}
	return w.parkBound
}

// replayEpochEvents merges the per-SM logs and replays every event
// strictly below the horizon in (cycle, SM index, log order) — the
// sequential loop's visit order — through the caches, DRAM channels,
// sharing tracker and dispatch cursors. Returns how many events it
// replayed and whether the launch finished (last CTA retired, or — with
// execErr set — a fault surfaced).
func (ls *launchState) replayEpochEvents(eps []*epochSM, horizon uint64, execErr *error) (processed int, finished bool) {
	for {
		// Linear scan of the queue heads: SM counts are small (≤ 30 here)
		// and rounds replay many events, so a heap would not pay for
		// itself. Strict < keeps ties on the lowest SM index.
		best := -1
		bc := horizon
		for s, ep := range eps {
			if ep.head < len(ep.queue) {
				if c := ep.queue[ep.head].cycle; c < bc {
					bc, best = c, s
				}
			}
		}
		if best < 0 {
			return processed, finished
		}
		ep := eps[best]
		ev := &ep.queue[ep.head]
		ep.head++
		sm := ep.sm
		switch ev.kind {
		case evMem:
			lat := ls.ms.priceLines(ev.cycle, sm.caches, ev.cta, ev.space, ev.store,
				ep.slab[ev.off:ev.end], ls.g.Stats)
			if w := ev.w; ev.parked {
				w.parked = false
				w.blocked = w.done || w.retired || w.barrier
				w.readyAt = ev.cycle + lat
				sm.syncReady(w)
				sm.skipUntil = 0 // the unparked warp may beat the skip bound
				ep.parked--
			}
		case evRetire:
			if err := ls.retire(sm, ev.w, ev.cycle); err != nil {
				*execErr = err
				return processed, true
			}
			ep.held = false
			if ls.pending == 0 {
				// Keep draining: remaining events are same-cycle stores
				// from higher SMs the sequential loop would still price.
				ls.now = ev.cycle + 1
				finished = true
			}
		case evFault:
			// The globally earliest fault in (cycle, SM) order is the one
			// the sequential loop would return; everything after it is
			// speculative and discarded.
			*execErr = ev.err
			return processed, true
		}
		processed++
		if ep.head == len(ep.queue) {
			ep.queue = ep.queue[:0]
			ep.head = 0
			ep.slab = ep.slab[:0]
		}
	}
}

// smNextIssue returns the earliest cycle ≥ now at which the SM could
// issue on purely local knowledge, or blockedAt if no warp could issue
// without outside help (parked warps are folded into blockedAt; their
// SM is bounded by parkBound elsewhere). Mirrors nextEvent's per-SM
// logic with an SM-local clock.
func smNextIssue(sm *smRT, now uint64) uint64 {
	if s := sm.skipUntil; s > now {
		if s == blockedAt {
			return blockedAt
		}
		if sm.issueFreeAt > s {
			s = sm.issueFreeAt
		}
		return s
	}
	best := sm.nextReady()
	if best == blockedAt {
		return blockedAt
	}
	if best < now {
		best = now
	}
	if sm.issueFreeAt > best {
		best = sm.issueFreeAt
	}
	return best
}

// epochAllFree reports whether no SM is waiting on coordinator action —
// no parked warps, no retire/fault holds — so an eventless round really
// means the launch is idle until the next ready cycle.
func epochAllFree(eps []*epochSM) bool {
	for _, ep := range eps {
		if ep.parked > 0 || ep.held {
			return false
		}
	}
	return true
}
