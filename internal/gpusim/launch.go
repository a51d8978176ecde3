package gpusim

import (
	"fmt"

	"repro/internal/isa"
)

type warpRT struct {
	w       *isa.ReplayWarp
	cta     *ctaRT
	readyAt uint64
	retired bool

	// done and barrier cache w.Done() and w.AtBarrier(), and blocked is
	// their disjunction with retired: the scheduler and nextEvent scan
	// every warp on an SM each cycle, and the cached flags keep those hot
	// loops down to one byte load with no interface dispatch. execOne
	// updates them from the Step; checkRelease clears barrier/blocked on
	// release.
	done    bool
	barrier bool
	blocked bool

	// slot is the warp's index in its SM's warps/ready slices, maintained
	// across retirement compaction, so readiness writes can update the
	// SM's flat scan array (smRT.ready) in O(1).
	slot int

	// parked marks a warp whose memory latency is not yet known on the
	// epoch-parallel path (epoch.go): the warp issued a load into the
	// SM's epoch log and blocks until the coordinator prices it.
	// parkBound is the SM-locally provable lower bound on the eventual
	// readyAt (issue cycle + the memory subsystem's λ for the space); the
	// SM never advances past the smallest bound among its parked warps,
	// which is what keeps local scheduling exact. Both stay zero outside
	// epoch mode.
	parked    bool
	parkBound uint64
}

type ctaRT struct {
	index   int // the CTA's index in its launch's grid
	spec    *runSpec
	sm      *smRT // the SM the CTA is resident on
	warps   []*warpRT
	live    int
	waiting int
}

type smRT struct {
	caches      *smCaches
	warps       []*warpRT
	issueFreeAt uint64
	rr          int

	// ready mirrors each warp's issue readiness — readyAt, or blockedAt
	// for warps that cannot issue (barrier, done, retired) — indexed like
	// warps. The scheduler, nextReady and nextEvent scan it instead of
	// chasing warpRT pointers: the scans run every cycle on every SM and
	// dominate the sequential loop's cache traffic. Every write to a
	// warp's blocked/readyAt goes through syncReady.
	ready []uint64

	// skipUntil is a lower bound on the next cycle any warp on this SM can
	// issue, recorded when a scheduler scan comes up empty so subsequent
	// cycles skip the SM without rescanning. It is scheduler-independent
	// (no policy can issue a warp before its readyAt) and is reset to 0
	// whenever a warp's readiness changes outside settleTiming: barrier
	// release and CTA placement.
	skipUntil uint64

	// Per-SM resource accounting, so CTAs of different kernels can share
	// an SM under concurrent execution.
	usedCTAs    int
	usedThreads int
	usedRegs    int
	usedShared  int

	// bankScr is the SM's scratch for the shared-memory bank-conflict
	// model; SM-owned so concurrent shards price conflicts without
	// allocating or sharing state.
	bankScr bankScratch
}

// blockedAt marks a warp that cannot issue in the ready array. Real
// readyAt values are always a small delta past the current cycle, so the
// sentinel never collides with one.
const blockedAt = ^uint64(0)

// syncReady refreshes the warp's entry in the SM's flat readiness array.
func (sm *smRT) syncReady(w *warpRT) {
	if w.blocked {
		sm.ready[w.slot] = blockedAt
	} else {
		sm.ready[w.slot] = w.readyAt
	}
}

// nextReady returns the earliest readyAt among the SM's unblocked warps,
// or the maximum cycle if none could ever issue without outside help.
func (sm *smRT) nextReady() uint64 {
	best := blockedAt
	for _, at := range sm.ready {
		if at < best {
			best = at
		}
	}
	return best
}

// fits reports whether one more CTA of the spec fits on the SM.
func (sm *smRT) fits(cfg *Config, sp *runSpec) bool {
	return sm.usedCTAs+1 <= cfg.MaxCTAs &&
		sm.usedThreads+sp.launch.Block <= cfg.MaxThreads &&
		sm.usedRegs+sp.k.Regs()*sp.launch.Block <= cfg.Registers &&
		sm.usedShared+sp.k.SharedBytes <= cfg.SharedMemory
}

// LaunchSpec pairs a kernel with its launch geometry and memory for
// concurrent execution.
type LaunchSpec struct {
	Kernel *isa.Kernel
	Launch isa.Launch
	Mem    *isa.Memory
}

// runSpec is one kernel of a launch: its dispatch cursor and the
// recorded streams its warps replay. A live launch's trace fills in CTA
// by CTA as its producer publishes them (feed, see feed.go); a replayed
// launch's trace is complete and feed is nil. Either way the timing loop
// never touches benchmark memory.
type runSpec struct {
	idx     int
	k       *isa.Kernel
	launch  isa.Launch
	nextCTA int

	trace *isa.LaunchTrace
	feed  *ctaFeed
}

// newTally returns one zeroed Stats per kernel of a launch, indexed by
// runSpec.idx: where an execution stream counts each kernel's
// instructions, occupancy, branches, memory operations and bank
// conflicts. The sequential loop counts into the launch's tally; each
// epoch worker counts into its own and the run merges them after.
func newTally(nspecs int) []*Stats {
	t := make([]*Stats, nspecs)
	for i := range t {
		t[i] = new(Stats)
	}
	return t
}

// issuedStep is one warp instruction issued during a cycle, carrying the
// timing charge decided so far. mem marks steps that still need pricing
// by the shared memory system (priceShared) before settling.
type issuedStep struct {
	w     *warpRT
	st    isa.Step
	issue uint64
	lat   uint64
	mem   bool
}

// launchState carries everything one (possibly concurrent) launch needs.
type launchState struct {
	g       *GPU
	specs   []*runSpec
	dram    dramModel
	ms      *memSubsystem
	sms     []*smRT
	tally   []*Stats // the launch's per-kernel counts (newTally)
	rrSpec  int
	pending int // CTAs not yet finished
	now     uint64

	// issueC caches cfg.issueCycles(): the division would otherwise sit on
	// the per-instruction path.
	issueC uint64

	// lo, when non-nil, tallies this launch's telemetry (obs.go). The
	// event loops hoist it into a local so the disabled path costs one
	// predictable branch per collection site.
	lo *launchObs
}

// fill assigns pending CTAs round-robin across kernels to an SM while its
// resource budgets allow. now is the SM's current cycle — the launch
// clock on the sequential path, the SM-local retire cycle on the epoch
// path — and fresh warps become ready at it. On a live launch it first
// waits for the CTA's producer to publish it, and fails if the producer
// failed.
func (ls *launchState) fill(sm *smRT, now uint64) error {
	for {
		placed := false
		for i := 0; i < len(ls.specs); i++ {
			sp := ls.specs[(ls.rrSpec+i)%len(ls.specs)]
			if sp.nextCTA >= sp.launch.Grid || !sm.fits(&ls.g.cfg, sp) {
				continue
			}
			if sp.feed != nil {
				if err := sp.feed.await(sp.nextCTA); err != nil {
					return err
				}
			}
			ls.rrSpec = (ls.rrSpec + i + 1) % len(ls.specs)
			cta := isa.MakeReplayCTA(sp.trace, sp.nextCTA)
			sp.nextCTA++
			rt := &ctaRT{index: cta.Index, spec: sp, sm: sm}
			// One contiguous warpRT block per CTA: the scheduler scans
			// these structs every cycle, and adjacency keeps the scan on
			// few cache lines.
			wrts := make([]warpRT, len(cta.Warps))
			for i, w := range cta.Warps {
				wrt := &wrts[i]
				wrt.w, wrt.cta, wrt.readyAt = w.(*isa.ReplayWarp), rt, now
				wrt.done = w.Done()
				wrt.blocked = wrt.done
				rt.warps = append(rt.warps, wrt)
				if !wrt.done {
					rt.live++
				}
				wrt.slot = len(sm.warps)
				sm.warps = append(sm.warps, wrt)
				sm.ready = append(sm.ready, 0)
				sm.syncReady(wrt)
			}
			sm.usedCTAs++
			sm.usedThreads += sp.launch.Block
			sm.usedRegs += sp.k.Regs() * sp.launch.Block
			sm.usedShared += sp.k.SharedBytes
			sm.skipUntil = 0 // fresh warps are ready now
			placed = true
			break
		}
		if !placed {
			return nil
		}
	}
}

// run is the sequential event loop: each cycle, every SM issues at most
// one warp instruction, in SM index order. When no warp can issue the
// clock jumps to the next event.
func (ls *launchState) run() error {
	var step issuedStep
	lo := ls.lo
	for ls.pending > 0 {
		issued := false
		for si, sm := range ls.sms {
			if sm.issueFreeAt > ls.now {
				if lo != nil {
					lo.stallPort[si]++
				}
				continue
			}
			if sm.skipUntil > ls.now {
				if lo != nil {
					lo.stallSkip[si]++
				}
				continue
			}
			ok, err := ls.execOne(sm, &step, ls.now)
			if err != nil {
				return err
			}
			if !ok {
				if lo != nil {
					lo.stallWarp[si]++
				}
				continue
			}
			if step.mem {
				ls.priceShared(sm, &step, ls.now)
			}
			ls.settleTiming(sm, &step, ls.now)
			if w := step.w; w.done && !w.retired {
				if err := ls.retire(sm, w, ls.now); err != nil {
					return err
				}
			}
			if lo != nil {
				lo.busy[si]++
			}
			issued = true
		}
		if issued {
			ls.now++
			continue
		}
		next, ok := ls.nextEvent()
		if !ok {
			return ls.deadlock()
		}
		if next <= ls.now {
			next = ls.now + 1
		}
		if lo != nil {
			lo.skipAhead += next - ls.now - 1
		}
		ls.now = next
	}
	// Buffered stores may still be draining: the launch is not over until
	// every DRAM channel is idle.
	ls.now = ls.dram.drainedBy(ls.now)
	return nil
}

func (ls *launchState) deadlock() error {
	return fmt.Errorf("gpusim: kernel %s deadlocked at cycle %d (%d CTAs unfinished)",
		ls.specs[0].k.Name, ls.now, ls.pending)
}

// nextEvent finds the earliest cycle at which any warp could issue. An SM
// whose scheduler scan already recorded a skip bound contributes that
// bound directly; the bound is conservative (warps only get later, and
// releases reset it to zero), so at worst the clock advances in more than
// one hop, never past a real event.
func (ls *launchState) nextEvent() (uint64, bool) {
	best := ^uint64(0)
	found := false
	for _, sm := range ls.sms {
		if s := sm.skipUntil; s > ls.now {
			if s != ^uint64(0) {
				if sm.issueFreeAt > s {
					s = sm.issueFreeAt
				}
				if s < best {
					best = s
					found = true
				}
			}
			continue
		}
		for _, at := range sm.ready {
			if at == blockedAt {
				continue
			}
			if sm.issueFreeAt > at {
				at = sm.issueFreeAt
			}
			if at < best {
				best = at
				found = true
			}
		}
	}
	return best, found
}

// execOne asks the scheduler for a warp on the SM, replays one warp
// instruction, and charges everything that depends only on SM-local
// state into the launch's tally: instruction/occupancy counters,
// ALU/SFU/control pricing, barrier arrival, and the SM-private memory
// spaces (parameter, shared). Memory instructions that route through the
// launch-global memory system are returned with mem=true for the caller
// to price via priceShared. now is the launch clock of the sequential
// loop, its only caller.
func (ls *launchState) execOne(sm *smRT, out *issuedStep, now uint64) (bool, error) {
	if sm.skipUntil > now {
		return false, nil
	}
	w := ls.g.sched.pick(sm, now)
	if w == nil {
		return false, nil // pick recorded sm.skipUntil
	}
	return true, ls.execWarp(sm, w, ls.tally, out, now)
}

// execWarp is execOne past warp selection: it decodes w's next recorded
// instruction and settles every SM-local charge. The epoch path calls it
// directly after its own pick, concurrently for SMs on different shards,
// each shard with its own tally; now is then the SM's local clock. Its
// only error is a stream that cannot be decoded.
func (ls *launchState) execWarp(sm *smRT, w *warpRT, tally []*Stats, out *issuedStep, now uint64) error {
	st := &out.st
	if err := w.w.Exec(nil, st); err != nil {
		return err
	}
	out.w = w
	out.mem = false
	if st.AtBarrier {
		w.barrier = true
		w.blocked = true
		sm.syncReady(w)
	}
	if st.Done {
		w.done = true
		w.blocked = true
		sm.syncReady(w)
	}
	cfg := &ls.g.cfg
	ks := tally[w.cta.spec.idx]
	issue := ls.issueC
	lat := uint64(cfg.ALULatency)

	ks.WarpInstrs++
	ks.ThreadInstrs += uint64(st.ActiveCount)
	if st.ActiveCount > 0 {
		bucket := (st.ActiveCount - 1) / 8
		if bucket > 3 {
			bucket = 3
		}
		ks.Occupancy[bucket]++
	}

	switch st.Instr.Op.Class() {
	case isa.ClassALU:
	case isa.ClassSFU:
		lat = uint64(cfg.SFULatency)
		issue *= 4 // SFU throughput is a quarter of the main pipeline
	case isa.ClassCtl:
		ks.BranchInstrs++
		if st.Diverged {
			ks.DivergentBranches++
		}
	case isa.ClassMem:
		ks.MemOps[st.Instr.Space] += uint64(st.ActiveCount)
		if sharedSpace(st.Instr.Space) {
			out.mem = true
		} else {
			issue, lat = ls.ms.localCost(st, issue, ks, &sm.bankScr)
		}
	case isa.ClassBar:
		ls.barrier(w, now)
	case isa.ClassExit:
	}
	out.issue, out.lat = issue, lat
	return nil
}

// priceShared completes the pricing of a mem step through the shared
// memory system. Must run serialized, in SM index order. Sharing
// statistics land in GPU.Stats directly — the tracker state they
// accompany is launch-global.
func (ls *launchState) priceShared(sm *smRT, step *issuedStep, now uint64) {
	step.issue, step.lat = ls.ms.sharedCost(
		now, sm.caches, step.w.cta.index, &step.st, step.issue, ls.g.Stats)
}

// settleTiming applies an issued step's charges to the SM and warp.
func (ls *launchState) settleTiming(sm *smRT, step *issuedStep, now uint64) {
	sm.issueFreeAt = now + step.issue
	step.w.readyAt = now + step.lat
	sm.syncReady(step.w)
}

func (ls *launchState) barrier(w *warpRT, now uint64) {
	w.cta.waiting++
	ls.checkRelease(w.cta, now)
}

// checkRelease releases a CTA's barrier once every live warp has arrived.
func (ls *launchState) checkRelease(cta *ctaRT, now uint64) {
	if cta.live == 0 || cta.waiting < cta.live {
		return
	}
	cta.waiting = 0
	for _, o := range cta.warps {
		if o.barrier {
			o.w.ReleaseBarrier()
			o.barrier = false
			o.blocked = o.done || o.retired
			if o.readyAt < now+1 {
				o.readyAt = now + 1
			}
			cta.sm.syncReady(o)
		}
	}
	cta.sm.skipUntil = 0 // released warps may issue next cycle
}

// retire retires a finished warp, and its CTA once no warp of it is live:
// that frees the CTA's resources and refills the SM. The full retire
// mutates launch-global dispatch state (pending, rrSpec, CTA cursors), so
// the epoch engine defers it to the coordinator's replay. Only the refill
// can fail (fill).
func (ls *launchState) retire(sm *smRT, w *warpRT, now uint64) error {
	w.retired = true
	w.blocked = true
	sm.syncReady(w)
	cta := w.cta
	cta.live--
	if cta.live > 0 {
		// A warp exited while others were waiting at a barrier.
		ls.checkRelease(cta, now)
		return nil
	}
	// CTA complete: free its resources, compact the warp list, refill.
	ls.pending--
	sp := cta.spec
	sm.usedCTAs--
	sm.usedThreads -= sp.launch.Block
	sm.usedRegs -= sp.k.Regs() * sp.launch.Block
	sm.usedShared -= sp.k.SharedBytes
	keep := sm.warps[:0]
	for _, x := range sm.warps {
		if x.cta != cta {
			x.slot = len(keep)
			keep = append(keep, x)
		}
	}
	sm.warps = keep
	sm.ready = sm.ready[:len(keep)]
	for _, x := range keep {
		sm.syncReady(x)
	}
	if sm.rr >= len(sm.warps) {
		sm.rr = 0
	}
	return ls.fill(sm, now)
}
