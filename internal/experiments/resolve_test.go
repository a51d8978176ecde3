package experiments

import "testing"

// TestResolverBounds pins the memory tier's LRU bound with room for two
// entries: a third evicts the least recently used, which the next lookup
// reads back from the store (or recomputes, without one), while a
// recently used entry stays a memory hit.
func TestResolverBounds(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		r := &resolver[string, int]{limit: 2}
		disk := make(map[string]int)
		var loads, computes int
		get := func(key string) {
			t.Helper()
			src := source[int]{compute: func() (int, error) {
				computes++
				return len(key), nil
			}}
			if withStore {
				src.load = func() (int, bool) {
					v, ok := disk[key]
					if ok {
						loads++
					}
					return v, ok
				}
				src.save = func(v int) { disk[key] = v }
			}
			if _, err := r.get(key, src); err != nil {
				t.Fatal(err)
			}
			if n := len(r.entries); n > 2 || r.size() != int64(n) {
				t.Fatalf("%d entries of summed cost %d kept, bound 2", n, r.size())
			}
		}

		get("a")
		get("b")
		get("a") // a is now more recently used than b
		get("c") // evicts b
		get("a")
		if computes != 3 || loads != 0 {
			t.Fatalf("store %v: %d computations, %d store reads; want 3 and 0", withStore, computes, loads)
		}
		get("b")
		if withStore && (computes != 3 || loads != 1) {
			t.Fatalf("evicted entry: %d computations, %d store reads; want it read back from the store", computes, loads)
		}
		if !withStore && computes != 4 {
			t.Fatalf("evicted entry: %d computations, want it recomputed", computes)
		}
	}
}

// TestResolverPanicKeepsNothing pins that a panic after the value
// entered the memory tier — here, in the store's save — still leaves
// nothing cached: the caller gets an error, and the next call recomputes.
func TestResolverPanicKeepsNothing(t *testing.T) {
	r := &resolver[string, int]{limit: 2}
	computes := 0
	src := source[int]{
		compute: func() (int, error) { computes++; return 1, nil },
		save:    func(int) { panic("disk on fire") },
	}
	if _, err := r.get("a", src); err == nil {
		t.Fatal("a panicking save succeeded")
	}
	if len(r.entries) != 0 || r.size() != 0 {
		t.Fatalf("%d entries of cost %d kept after a panic", len(r.entries), r.size())
	}
	src.save = nil
	if _, err := r.get("a", src); err != nil || computes != 2 {
		t.Fatalf("retry: err %v after %d computations, want success after 2", err, computes)
	}
}
