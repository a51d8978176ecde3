package experiments

import (
	"fmt"
	"sync"
)

// resolver is the experiment layer's one cache. A lookup goes to the
// memory tier, then the persistent store, then computation:
//
//   - Callers of one key share one in-flight call, so however many
//     experiments or requests race for a key, its store read and its
//     computation run once.
//   - The memory tier keeps successes only, in an LRU bounded by cost.
//     A failure reaches the callers waiting on it, and the next call
//     retries. A panic is such a failure: every caller gets it as an
//     error, and nothing is cached.
//
// Context runs three: Stats, traces and CPU-profile sweeps. The zero
// value keeps nothing; set limit before use.
type resolver[K comparable, V any] struct {
	limit int64 // bound on the summed cost of the memory tier
	// cost, when set, is one value's cost; without it every value costs
	// one, so limit counts entries.
	cost func(V) int64
	// kept, when set, hears what keeping a value did: the keys evicted
	// to make room, and whether the value was kept at all (it is not
	// when its cost alone exceeds the limit).
	kept func(key K, v V, evicted []K, ok bool)

	mu       sync.Mutex
	clock    uint64
	used     int64
	entries  map[K]*entry[V]
	inflight map[K]*call[V]
}

type entry[V any] struct {
	v        V
	cost     int64
	lastUsed uint64
}

// call is one in-flight resolution; v and err are set before done is
// closed.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// source is where one lookup fills a memory miss from.
type source[V any] struct {
	load    func() (V, bool) // the store tier; nil without a store
	compute func() (V, error)
	save    func(V) // spills a computed value to the store; nil without one
}

// get resolves key through the tiers.
func (r *resolver[K, V]) get(key K, src source[V]) (V, error) {
	r.mu.Lock()
	if e := r.entries[key]; e != nil {
		r.clock++
		e.lastUsed = r.clock
		v := e.v
		r.mu.Unlock()
		return v, nil
	}
	if c := r.inflight[key]; c != nil {
		r.mu.Unlock()
		<-c.done
		return c.v, c.err
	}
	if r.inflight == nil {
		r.inflight = make(map[K]*call[V])
	}
	c := &call[V]{done: make(chan struct{})}
	r.inflight[key] = c
	r.mu.Unlock()

	c.v, c.err = r.fill(key, src)
	r.mu.Lock()
	delete(r.inflight, key)
	r.mu.Unlock()
	close(c.done)
	return c.v, c.err
}

// fill resolves a memory miss: a value from the store or a computed one
// enters the memory tier, and a computed one is then spilled to the
// store. A panic becomes the error, and whatever it kept is dropped.
func (r *resolver[K, V]) fill(key K, src source[V]) (v V, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.drop(key)
			var zero V
			v, err = zero, fmt.Errorf("panicked: %v", p)
		}
	}()
	if src.load != nil {
		if v, ok := src.load(); ok {
			r.keep(key, v)
			return v, nil
		}
	}
	if v, err = src.compute(); err != nil {
		return v, err
	}
	r.keep(key, v)
	if src.save != nil {
		src.save(v)
	}
	return v, nil
}

// keep adds a value to the memory tier, evicting the least recently
// used values until the summed cost is within the limit.
func (r *resolver[K, V]) keep(key K, v V) {
	cost := int64(1)
	if r.cost != nil {
		cost = r.cost(v)
	}
	var evicted []K
	r.mu.Lock()
	ok := cost <= r.limit
	if ok {
		if r.entries == nil {
			r.entries = make(map[K]*entry[V])
		}
		r.clock++
		r.entries[key] = &entry[V]{v: v, cost: cost, lastUsed: r.clock}
		r.used += cost
		for r.used > r.limit {
			var lru K
			var oldest *entry[V]
			for k, e := range r.entries {
				if oldest == nil || e.lastUsed < oldest.lastUsed {
					lru, oldest = k, e
				}
			}
			r.used -= oldest.cost
			delete(r.entries, lru)
			evicted = append(evicted, lru)
		}
	}
	r.mu.Unlock()
	if r.kept != nil {
		r.kept(key, v, evicted, ok)
	}
}

// drop removes key from the memory tier.
func (r *resolver[K, V]) drop(key K) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[key]; e != nil {
		r.used -= e.cost
		delete(r.entries, key)
	}
}

// size is the summed cost of the memory tier.
func (r *resolver[K, V]) size() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}
