package gpusim

import (
	"math/rand"
	"testing"
)

// refPick is the reference loose round-robin scan: starting just past
// the cursor and wrapping once, the first warp ready by now. It returns
// the warp's slot, or -1 and the least ready cycle among unblocked warps
// (blockedAt when none is).
func refPick(ready []uint64, rr int, now uint64) (int, uint64) {
	skip := uint64(blockedAt)
	for i := 1; i <= len(ready); i++ {
		j := (rr + i) % len(ready)
		if ready[j] <= now {
			return j, 0
		}
		skip = min(skip, ready[j])
	}
	return -1, skip
}

// TestLooseRoundRobinPick checks looseRoundRobin.pick, whose contract
// the event loop's run-ahead relies on, against refPick: on random
// ready arrays of 1 to 130 warps (so the scan crosses 64 and 128 slots),
// with the cursor at 0, at n-1 and where a retirement compaction leaves
// it, with ties, on an all-blocked SM and on an empty one. A pick must
// return the reference's warp, move the cursor to it only on success and
// leave skipUntil alone; a failed pick must record the reference's bound
// in skipUntil.
func TestLooseRoundRobinPick(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const now = 1000
	// draw returns a ready cycle: blocked, ready (ties at now), or
	// waiting, from a narrow range so waiting warps tie too.
	draw := func(blocked, waiting int) uint64 {
		switch n := r.Intn(100); {
		case n < blocked:
			return blockedAt
		case n < blocked+waiting:
			return now + 1 + uint64(r.Intn(4))
		default:
			return now - uint64(r.Intn(2))
		}
	}
	check := func(sm *smRT, name string) {
		t.Helper()
		n := len(sm.ready)
		rr := sm.rr
		const skipMark = 7 // a skipUntil no pick on success may change
		sm.skipUntil = skipMark
		wantSlot, wantSkip := -1, uint64(blockedAt)
		if n > 0 {
			wantSlot, wantSkip = refPick(sm.ready, rr, now)
		}
		w := looseRoundRobin{}.pick(sm, now)
		if wantSlot < 0 {
			if w != nil {
				t.Fatalf("%s (n=%d, rr=%d): picked slot %d, want none", name, n, rr, w.slot)
			}
			if sm.rr != rr {
				t.Fatalf("%s (n=%d): failed pick moved the cursor %d -> %d", name, n, rr, sm.rr)
			}
			if sm.skipUntil != wantSkip {
				t.Fatalf("%s (n=%d, rr=%d): skipUntil %d, want %d", name, n, rr, sm.skipUntil, wantSkip)
			}
			return
		}
		if w == nil || w != sm.warps[wantSlot] {
			got := -1
			if w != nil {
				got = w.slot
			}
			t.Fatalf("%s (n=%d, rr=%d): picked slot %d, want %d", name, n, rr, got, wantSlot)
		}
		if sm.rr != wantSlot {
			t.Fatalf("%s (n=%d): cursor %d after picking slot %d", name, n, sm.rr, wantSlot)
		}
		if sm.skipUntil != skipMark {
			t.Fatalf("%s (n=%d): successful pick set skipUntil %d", name, n, sm.skipUntil)
		}
	}
	// sized builds an SM of n warps, each ready at draw's cycle.
	sized := func(n, blocked, waiting int) *smRT {
		sm := &smRT{}
		for i := 0; i < n; i++ {
			sm.warps = append(sm.warps, &warpRT{slot: i})
			sm.ready = append(sm.ready, draw(blocked, waiting))
		}
		return sm
	}

	check(&smRT{}, "empty SM")
	for n := 1; n <= 130; n++ {
		for trial := 0; trial < 20; trial++ {
			blocked, waiting := r.Intn(60), r.Intn(40)
			for _, rr := range []int{0, n - 1, r.Intn(n)} {
				sm := sized(n, blocked, waiting)
				sm.rr = rr
				check(sm, "random")
			}
			all := sized(n, 100, 0)
			all.rr = r.Intn(n)
			check(all, "all blocked")
			none := sized(n, 0, 100)
			none.rr = r.Intn(n)
			check(none, "none ready")

			// A CTA of 1 to 8 warps at a random position retires: the
			// survivors close ranks, and the cursor stays where it was
			// unless it fell off the end (retire).
			big := sized(n+1+r.Intn(8), blocked, waiting)
			big.rr = r.Intn(len(big.warps))
			lo := r.Intn(n + 1)
			gone := len(big.warps) - n
			sm := &smRT{rr: big.rr}
			for i, w := range big.warps {
				if i >= lo && i < lo+gone {
					continue
				}
				w.slot = len(sm.warps)
				sm.warps = append(sm.warps, w)
				sm.ready = append(sm.ready, big.ready[i])
			}
			if sm.rr >= len(sm.warps) {
				sm.rr = 0
			}
			check(sm, "after compaction")
		}
	}
}
