package gpusim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinBarrier is the epoch engine's sense-reversing worker barrier
// (epoch.go). The atomics establish the happens-before edges that make
// the coordinator's replay visible to the next round of SM execution
// (and satisfy the race detector).
//
// When the barrier has more parties than the runtime has processors
// (GOMAXPROCS), spinning is self-defeating: an oversubscribed worker
// burning a core is a core the straggler the barrier is waiting on does
// not get. Those barriers park on a condition variable instead. The
// common, non-oversubscribed path stays a pure spin with no locked
// sections — the park fields go untouched.
type spinBarrier struct {
	parties int32
	count   atomic.Int32
	sense   atomic.Int32

	park bool // parties > GOMAXPROCS at construction
	mu   sync.Mutex
	cond sync.Cond
}

func newSpinBarrier(parties int) *spinBarrier {
	b := &spinBarrier{
		parties: int32(parties),
		park:    parties > runtime.GOMAXPROCS(0),
	}
	b.cond.L = &b.mu
	return b
}

// wait blocks until all parties arrive. local is the caller's sense
// word, owned by one goroutine and flipped on every crossing.
func (b *spinBarrier) wait(local *int32) {
	s := 1 - *local
	*local = s
	if b.count.Add(1) == b.parties {
		b.count.Store(0)
		if b.park {
			// Publish the sense under the mutex: a parked waiter that saw
			// the old sense holds the lock until it is inside cond.Wait,
			// so the broadcast cannot slip between its check and its
			// sleep.
			b.mu.Lock()
			b.sense.Store(s)
			b.mu.Unlock()
			b.cond.Broadcast()
		} else {
			b.sense.Store(s)
		}
		return
	}
	if b.park {
		b.mu.Lock()
		for b.sense.Load() != s {
			b.cond.Wait()
		}
		b.mu.Unlock()
		return
	}
	for i := 1; b.sense.Load() != s; i++ {
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
}
