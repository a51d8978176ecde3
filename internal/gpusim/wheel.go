package gpusim

import "math/bits"

// wheelSlots is the wake wheel's span in cycles, a power of two. Most
// wakes are an issue slot or a memory latency away, well inside it; a
// later one (a long DRAM queue, a large configured latency) waits in the
// far set.
const wheelSlots = 1024

// wakeWheel is the event loop's schedule: each SM is filed under
// the next cycle the loop must visit it at — the cycle of the global
// step it parked (run), or its wake (smRT.wake) on its first visit and
// once it has no warps — and the loop visits only the SMs filed under
// the cycle it is at. Slot c mod wheelSlots holds the SMs waking at
// cycle c, as a bitset drained in SM index order, for cycles in a window
// of wheelSlots cycles from the clock; wakes beyond the window wait in
// the far set until the clock comes near. An SM none of whose warps can
// ever issue (wake blockedAt) is not filed at all: only a step of its
// own could change that.
type wakeWheel struct {
	words int                     // bitset words per slot: ⌈NumSMs/64⌉
	slots []uint64                // wheelSlots bitsets of SMs
	occ   [wheelSlots / 64]uint64 // slots holding at least one SM

	far    []uint64 // bitset of SMs filed beyond the window
	farAt  []uint64 // per SM: its wake while in far
	farMin uint64   // earliest wake in far; blockedAt when far is empty
}

func newWakeWheel(numSMs int) *wakeWheel {
	words := (numSMs + 63) / 64
	return &wakeWheel{
		words:  words,
		slots:  make([]uint64, wheelSlots*words),
		far:    make([]uint64, words),
		farAt:  make([]uint64, numSMs),
		farMin: blockedAt,
	}
}

// file schedules SM si to wake at cycle wake, at or after now, the cycle
// whose slot is being drained; it files nothing for blockedAt.
func (wh *wakeWheel) file(si int, wake, now uint64) {
	switch {
	case wake == blockedAt:
	case wake-now < wheelSlots:
		slot := int(wake & (wheelSlots - 1))
		wh.slots[slot*wh.words+si>>6] |= 1 << (si & 63)
		wh.occ[slot>>6] |= 1 << (slot & 63)
	default:
		wh.far[si>>6] |= 1 << (si & 63)
		wh.farAt[si] = wake
		wh.farMin = min(wh.farMin, wake)
	}
}

// next returns the earliest cycle at or after now under which an SM is
// filed, and false when none is.
func (wh *wakeWheel) next(now uint64) (uint64, bool) {
	c, ok := wh.scan(now)
	if wh.farMin != blockedAt && (!ok || wh.farMin <= c) {
		c, ok = wh.farMin, true
		wh.pull(c)
	}
	return c, ok
}

// scan finds the first occupied slot from now's, wrapping once: every
// SM in the wheel wakes within wheelSlots cycles of now, so the first
// slot found is the earliest wake.
func (wh *wakeWheel) scan(now uint64) (uint64, bool) {
	p := int(now & (wheelSlots - 1))
	wi := p >> 6
	word := wh.occ[wi] &^ (1<<(p&63) - 1)
	for i := 0; i <= len(wh.occ); i++ {
		if word != 0 {
			slot := wi<<6 + bits.TrailingZeros64(word)
			return now + uint64((slot-p)&(wheelSlots-1)), true
		}
		wi = (wi + 1) % len(wh.occ)
		word = wh.occ[wi]
	}
	return 0, false
}

// pull moves the far SMs waking within wheelSlots cycles of c, the
// clock's next cycle, into the wheel.
func (wh *wakeWheel) pull(c uint64) {
	wh.farMin = blockedAt
	for wi, word := range wh.far {
		for ; word != 0; word &= word - 1 {
			si := wi<<6 + bits.TrailingZeros64(word)
			if at := wh.farAt[si]; at-c < wheelSlots {
				wh.far[wi] &^= 1 << (si & 63)
				wh.file(si, at, c)
			} else {
				wh.farMin = min(wh.farMin, at)
			}
		}
	}
}

// take empties cycle c's slot and returns its bitset, valid until the
// clock next reaches the slot. Visits at c file SMs only at later
// cycles, which lie in other slots, so the caller may drain the bitset
// while it files.
func (wh *wakeWheel) take(c uint64) []uint64 {
	slot := int(c & (wheelSlots - 1))
	wh.occ[slot>>6] &^= 1 << (slot & 63)
	return wh.slots[slot*wh.words : (slot+1)*wh.words]
}
