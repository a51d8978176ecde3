package gpusim

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

type warpRT struct {
	w       *isa.ReplayWarp
	cta     *ctaRT
	readyAt uint64
	retired bool

	// done and barrier cache w.Done() and w.AtBarrier(), and blocked is
	// their disjunction with retired: the scheduler scans every warp on an
	// SM at each pick, and the cached flags keep that hot loop down to
	// one byte load with no interface dispatch. execWarp updates them from
	// the Step; checkRelease clears barrier/blocked on release.
	done    bool
	barrier bool
	blocked bool

	// slot is the warp's index in its SM's warps/ready slices, maintained
	// across retirement compaction, so readiness writes can update the
	// SM's flat scan array (smRT.ready) in O(1).
	slot int
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
	// warps. The scheduler scans it instead of chasing warpRT pointers:
	// its scan runs at every pick of every SM and dominates the event
	// loop's cache traffic. Every write to a warp's blocked/readyAt goes
	// through syncReady.
	ready []uint64

	// skipUntil is a lower bound on the next cycle any warp on this SM can
	// issue, recorded when a scheduler scan comes up empty so the loops
	// skip the SM until then without rescanning (see wake). It is
	// scheduler-independent (no policy can issue a warp before its
	// readyAt) and is reset to 0 whenever a warp's readiness changes
	// outside settleTiming: barrier release and CTA placement.
	skipUntil uint64

	// step is the SM's issued-step slot, the one execWarp decodes each
	// issued instruction into. A step that needs launch-global state
	// waits in it, parked, until the loop's clock reaches the cycle it
	// issued at (run); fault likewise holds an undecodable stream until
	// then, so the loop returns the fault it would meet first in (cycle,
	// SM index) order.
	step   issuedStep
	parked bool
	fault  error

	// Per-SM resource accounting, so CTAs of different kernels can share
	// an SM under concurrent execution.
	usedCTAs    int
	usedThreads int
	usedRegs    int
	usedShared  int
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

// wake is the first cycle the SM can issue at: its issue port must be
// free, and no warp is ready before skipUntil. It is blockedAt when no
// warp can issue until a step of the SM's own changes that.
func (sm *smRT) wake() uint64 { return max(sm.issueFreeAt, sm.skipUntil) }

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
// runSpec.idx: where the event loop counts each kernel's instructions,
// occupancy, branches, memory operations and bank conflicts.
func newTally(nspecs int) []*Stats {
	t := make([]*Stats, nspecs)
	for i := range t {
		t[i] = new(Stats)
	}
	return t
}

// issuedStep is one warp instruction an SM issued, carrying the timing
// charge decided so far; each SM keeps one (smRT.step). mem marks steps
// that still need pricing by the shared memory system (priceShared)
// before settling.
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
	dram    *fifoDRAM
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

	// shared counts the sharing tracker's statistics, which belong to no
	// kernel (priceShared); they join GPU.Stats with the rest of the
	// launch's counts, so a failed launch leaves Stats as they were.
	shared Stats
}

// fill assigns pending CTAs round-robin across kernels to an SM while its
// resource budgets allow. now is the launch clock, and fresh warps
// become ready at it. On a live launch it first waits for the CTA's
// producer to publish it, and fails if the producer failed.
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

// run is the launch's event loop. Its clock stops only at global
// events: an SM runs ahead on its own state (runAhead) until it picks a
// step that needs launch-global state — a memory space priced by the
// caches, the DRAM channels and the sharing tracker, or the exit that
// completes a CTA and refills the SM from the dispatch cursors — parks
// that step in its issued-step slot (smRT.step) and is filed in a wake
// wheel under the step's cycle. The clock jumps from one filed cycle to
// the next and visits that cycle's SMs in SM index order; a visit settles
// the SM's parked step and runs it ahead again. So global steps are
// priced in (cycle, SM index) order, the order a scan of every SM on
// every cycle would price them in. Running ahead is exact because an
// SM's state changes only through its own steps (barrier release and
// refill touch only the SM they happen on), so it picks at exactly the
// cycles, and the same warps, as that scan, and filing when a visit ends
// is exact for the same reason.
func (ls *launchState) run() error {
	lo := ls.lo
	wh := newWakeWheel(len(ls.sms))
	for si := range ls.sms {
		wh.file(si, 0, 0)
	}
	for ls.pending > 0 {
		now, ok := wh.next(ls.now)
		if !ok {
			return ls.deadlock()
		}
		if lo != nil {
			lo.skipAhead += now - ls.now
		}
		ls.now = now
		row := wh.take(now)
		for wi, word := range row {
			row[wi] = 0
			for ; word != 0; word &= word - 1 {
				si := wi<<6 + bits.TrailingZeros64(word)
				sm := ls.sms[si]
				if sm.fault != nil {
					return sm.fault
				}
				if sm.parked {
					sm.parked = false
					if err := ls.settle(sm, now); err != nil {
						return err
					}
				}
				wake, err := ls.runAhead(sm, si, now)
				if err != nil {
					return err
				}
				wh.file(si, wake, now)
			}
		}
		ls.now = now + 1
	}
	// Buffered stores may still be draining: the launch is not over until
	// every DRAM channel is idle.
	end := ls.now
	ls.now = ls.dram.drainedBy(end)
	if lo != nil {
		for si, sm := range ls.sms {
			lo.idle(si, end, sm.issueFreeAt)
			lo.stallSkip[si] += ls.now - end
		}
	}
	return nil
}

func (ls *launchState) deadlock() error {
	return fmt.Errorf("gpusim: kernel %s deadlocked at cycle %d (%d CTAs unfinished)",
		ls.specs[0].k.Name, ls.now, ls.pending)
}

// runAhead is the loop's visit of SM si at cycle now, after the SM's
// parked step, if any, has settled. From the SM's wake on it picks and
// issues at each cycle its port and warps allow, settling every step
// that touches only the SM: ALU, SFU and control, parameter and
// shared memory, barriers, and a warp exit that leaves its CTA live. It
// stops at a step that needs launch-global state and returns that step's
// cycle for the loop to file the SM under, with the step parked in
// sm.step, or settled at once when its cycle is now (only the first pick
// of a visit can be). An undecodable stream parks as sm.fault the same
// way. An SM left with no warps stops at its wake too, so its empty scan
// is tallied only if the launch is still running then; an SM no warp of
// which can issue returns blockedAt and is not filed.
func (ls *launchState) runAhead(sm *smRT, si int, now uint64) (uint64, error) {
	lo := ls.lo
	step := &sm.step
	for {
		t := sm.wake()
		if t != now && (t == blockedAt || len(sm.warps) == 0) {
			return t, nil
		}
		if lo != nil {
			lo.idle(si, t, sm.issueFreeAt)
		}
		w := ls.g.sched.pick(sm, t)
		if lo != nil {
			lo.visited(si, t, w != nil)
		}
		if w == nil {
			continue // pick recorded sm.skipUntil
		}
		if err := ls.execWarp(sm, w, step, t); err != nil {
			if t == now {
				return 0, err
			}
			sm.fault = err
			return t, nil
		}
		if t != now && (step.mem || w.done && w.cta.live == 1) {
			sm.parked = true
			return t, nil
		}
		if err := ls.settle(sm, t); err != nil {
			return 0, err
		}
	}
}

// settle completes SM sm's issued step at cycle now, the cycle it issued
// at: it prices a memory step through the memory system, applies the
// step's charges and retires the warp if it finished. Only a refill can
// fail (fill).
func (ls *launchState) settle(sm *smRT, now uint64) error {
	step := &sm.step
	if step.mem {
		ls.priceShared(sm, step, now)
	}
	ls.settleTiming(sm, step, now)
	if w := step.w; w.done && !w.retired {
		return ls.retire(sm, w, now)
	}
	return nil
}

// execWarp decodes w's next recorded instruction and settles every
// SM-local charge: instruction and occupancy counters, ALU/SFU/control
// pricing, barrier arrival, and the SM-private memory spaces (parameter,
// shared). A memory instruction that routes through the launch-global
// memory system comes back with mem=true, for the caller to price via
// priceShared. runAhead calls it after the scheduler's pick, ahead of
// the loop's clock, with out the SM's issued-step slot and now the
// pick's cycle. Its only error is a stream that cannot be decoded.
func (ls *launchState) execWarp(sm *smRT, w *warpRT, out *issuedStep, now uint64) error {
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
	ks := ls.tally[w.cta.spec.idx]
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
			issue, lat = ls.ms.localCost(st, issue, ks, &sm.caches.bankScr)
		}
	case isa.ClassBar:
		ls.barrier(w, now)
	case isa.ClassExit:
	}
	out.issue, out.lat = issue, lat
	return nil
}

// priceShared completes the pricing of a mem step through the shared
// memory system, in the loop's (cycle, SM index) order. Sharing
// statistics land in the launch's ls.shared, not a kernel's tally — the
// tracker state they accompany is launch-global.
func (ls *launchState) priceShared(sm *smRT, step *issuedStep, now uint64) {
	step.issue, step.lat = ls.ms.sharedCost(
		now, sm.caches, step.w.cta.index, &step.st, step.issue, &ls.shared)
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
// the loop settles it only at its own clock (runAhead parks it). Only
// the refill can fail (fill).
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
