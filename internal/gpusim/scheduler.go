package gpusim

// warpScheduler selects which warp an SM issues next. Implementations
// may keep per-SM cursor state on the smRT they are handed, but must not
// touch state belonging to other SMs or to the launch: the event loop
// calls pick for an SM at cycles ahead of its clock (runAhead).
type warpScheduler interface {
	// pick returns a warp on sm that can issue at cycle now. When no warp
	// can, it returns nil and must record sm.skipUntil — the earliest
	// cycle any warp on the SM could issue, the least of sm.ready — so
	// the event loop skips the SM without rescanning; the failing scan
	// already visited every warp, so the bound is free.
	pick(sm *smRT, now uint64) *warpRT
}

// looseRoundRobin is GPGPU-Sim's default issue policy: scan from just
// past the last issued warp, wrapping, and take the first warp that is
// neither retired, finished, parked at a barrier, nor still waiting on a
// previous instruction.
type looseRoundRobin struct{}

var _ warpScheduler = looseRoundRobin{}

func (looseRoundRobin) pick(sm *smRT, now uint64) *warpRT {
	// Scan the SM's flat readiness array rather than the warp structs:
	// this loop runs for every issue and every empty scan of every SM,
	// and blocked warps are already folded into the array as an
	// unreachable cycle.
	ready := sm.ready
	n := len(ready)
	if n == 0 {
		sm.skipUntil = blockedAt
		return nil
	}
	idx := sm.rr + 1
	if idx >= n {
		idx = 0
	}
	best := blockedAt
	for i := 0; i < n; i++ {
		at := ready[idx]
		if at <= now {
			sm.rr = idx
			return sm.warps[idx]
		}
		if at < best {
			best = at
		}
		if idx++; idx >= n {
			idx = 0
		}
	}
	sm.skipUntil = best
	return nil
}
