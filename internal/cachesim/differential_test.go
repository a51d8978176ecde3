package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// naiveMisses extracts the oracle's per-size miss counts.
func naiveMisses(n *NaiveSweep) []uint64 {
	out := make([]uint64, len(n.Caches))
	for i, c := range n.Caches {
		out[i] = c.Misses
	}
	return out
}

// feedChunked delivers events to every consumer in batches of random
// size, skewed small so single-event batches are common: state a
// consumer carries across Events calls (Sweep's repeat-line filter,
// Sharing's last-line mask) then meets every kind of batch boundary.
func feedChunked(seed int64, events []trace.Event, cs ...trace.BatchConsumer) {
	r := rand.New(rand.NewSource(seed))
	for len(events) > 0 {
		n := min(1+r.Intn(1<<r.Intn(8)), len(events))
		for _, c := range cs {
			c.Events(events[:n])
		}
		events = events[n:]
	}
}

// assertSweepsEqual fails unless the single-pass sweep and the naive
// oracle accumulated byte-identical counts.
func assertSweepsEqual(t *testing.T, name string, fast *Sweep, naive *NaiveSweep) {
	t.Helper()
	nm := naiveMisses(naive)
	fm := fast.Misses()
	if len(nm) != len(fm) {
		t.Fatalf("%s: %d naive sizes vs %d fast sizes", name, len(nm), len(fm))
	}
	for i := range nm {
		if nm[i] != fm[i] {
			t.Errorf("%s: %d kB misses differ: naive %d, single-pass %d",
				name, DefaultSizesKB[i], nm[i], fm[i])
		}
	}
	for i, c := range naive.Caches {
		if c.Accesses != fast.Accesses {
			t.Errorf("%s: %d kB accesses differ: naive %d, single-pass %d",
				name, DefaultSizesKB[i], c.Accesses, fast.Accesses)
		}
	}
}

// TestSweepMatchesNaiveAllWorkloads is the differential acceptance test:
// over every workload in the suite, the single-pass stack-distance sweep
// must produce exactly the miss counts of the retained naive
// eight-cache path, fed by one shared harness so both see the same
// interleaved stream.
func TestSweepMatchesNaiveAllWorkloads(t *testing.T) {
	ws := workloads.All()
	if len(ws) != 24 {
		t.Fatalf("expected 24 workloads, have %d", len(ws))
	}
	for _, w := range ws {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			fast := NewSweep()
			naive := NewNaiveSweep()
			h := trace.NewHarness(workloads.Threads, fast, naive)
			w.RunDefault(h)
			if fast.Accesses == 0 {
				t.Fatalf("%s produced no memory accesses", w.Name)
			}
			assertSweepsEqual(t, w.Name, fast, naive)
		})
	}
}

// TestQuickSweepMatchesNaive drives both sweeps with adversarial random
// streams — mixed strides, working sets from resident to thrashing, and
// line-straddling sizes.
func TestQuickSweepMatchesNaive(t *testing.T) {
	f := func(seed uint64, spanBits uint8) bool {
		fast := NewSweep()
		naive := NewNaiveSweep()
		span := uint64(1) << (12 + spanBits%14) // 4 kB .. 32 MB working sets
		events := make([]trace.Event, 30000)
		r := seed | 1
		for i := range events {
			r = r*6364136223846793005 + 1442695040888963407
			addr := (r >> 13) % span
			size := uint8(1) << ((r >> 7) % 4) // 1..8 bytes, some straddling
			kind := trace.KindLoad
			if r&1 == 0 {
				kind = trace.KindStore
			}
			events[i] = trace.Event{Kind: kind, Addr: addr, Size: size, Count: 1, Tid: uint8(r % 8)}
		}
		feedChunked(int64(seed), events, fast, naive)
		nm := naiveMisses(naive)
		fm := fast.Misses()
		for i := range nm {
			if nm[i] != fm[i] {
				return false
			}
		}
		return naive.Caches[0].Accesses == fast.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepStraddlingAccess: an access crossing a line boundary probes
// both lines in both implementations.
func TestSweepStraddlingAccess(t *testing.T) {
	fast := NewSweep()
	naive := NewNaiveSweep()
	e := []trace.Event{{Kind: trace.KindLoad, Addr: 60, Size: 8, Count: 1}}
	fast.Events(e)
	naive.Events(e)
	if fast.Accesses != 2 {
		t.Fatalf("straddling access counted %d probes, want 2", fast.Accesses)
	}
	if got := fast.Misses()[0]; got != 2 {
		t.Fatalf("straddling cold access missed %d times at 128 kB, want 2", got)
	}
	assertSweepsEqual(t, "straddle", fast, naive)
	// Re-access: both lines are now resident.
	fast.Events(e)
	naive.Events(e)
	if got := fast.Misses()[0]; got != 2 {
		t.Fatalf("resident straddling access missed: %d misses", got)
	}
	assertSweepsEqual(t, "straddle-warm", fast, naive)
}

// TestSharedCacheStraddlingEviction: straddling accesses participate in
// replacement like any other probe — filling a set via straddles evicts
// its LRU line.
func TestSharedCacheStraddlingEviction(t *testing.T) {
	c := NewSharedCache(128, 4)
	sets := 128 * 1024 / LineSize / 4
	// Five lines mapping to set 0, each touched by a straddling access
	// whose first byte sits on the previous line's tail.
	for i := 1; i <= 5; i++ {
		addr := uint64(i*sets*LineSize) - 2
		c.Events([]trace.Event{{Kind: trace.KindStore, Addr: addr, Size: 4, Count: 1}})
	}
	// 5 straddles = 10 probes; the 5 head lines (set sets-1) conflict-miss
	// nothing, the 5 tail lines all map to set 0 and overflow its 4 ways.
	if c.Accesses != 10 || c.Misses != 10 {
		t.Fatalf("accesses=%d misses=%d, want 10/10", c.Accesses, c.Misses)
	}
	// Re-access tail line of the first straddle: evicted, must miss.
	before := c.Misses
	c.Events(loads(uint64(sets * LineSize)))
	if c.Misses != before+1 {
		t.Fatalf("LRU straddled line not evicted (misses %d -> %d)", before, c.Misses)
	}
}

// TestSweepByKBPoints: the new ByKB exposes per-size counts.
func TestSweepByKBPoints(t *testing.T) {
	s := NewSweep()
	s.Events(lineWalk(100, 1))
	p, err := s.ByKB(4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.Accesses != 100 || p.Misses != 100 || p.MissRate() != 1 {
		t.Fatalf("cold streaming point = %+v", p)
	}
	if _, err := s.ByKB(999); err == nil {
		t.Fatal("ByKB(999) succeeded")
	}
}

// TestNewSweepSizesRejectsBadGeometry: degenerate configurations panic.
func TestNewSweepSizesRejectsBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		sizes []int
		ways  int
	}{{nil, 4}, {[]int{128}, 0}} {
		tc := tc
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSweepSizes(%v, %d) did not panic", tc.sizes, tc.ways)
				}
			}()
			NewSweepSizes(tc.sizes, tc.ways)
		}()
	}
}

// TestSweepOddGeometryMatchesNaive: non-doubling sizes and non-power-of-
// two geometries (set counts rounded down, like NewSharedCache) agree
// with per-size naive caches too.
func TestSweepOddGeometryMatchesNaive(t *testing.T) {
	sizes := []int{96, 640, 1024}
	const ways = 2
	fast := NewSweepSizes(sizes, ways)
	naive := &NaiveSweep{}
	for _, kb := range sizes {
		naive.Caches = append(naive.Caches, NewSharedCache(kb, ways))
	}
	stream := make([]uint64, 100000)
	r := uint64(7)
	for i := range stream {
		r = r*6364136223846793005 + 1442695040888963407
		stream[i] = (r >> 16) % (3 << 20)
	}
	feedChunked(7, loads(stream...), fast, naive)
	fm := fast.Misses()
	for i, c := range naive.Caches {
		if c.Misses != fm[i] {
			t.Errorf("%d kB/%d-way: naive %d misses, single-pass %d", sizes[i], ways, c.Misses, fm[i])
		}
	}
}

// TestSharingIncrementalCountsMatchRescan: the incrementally maintained
// shared-line count and OnesCount64-based mean must equal a naive rescan
// of the line map.
func TestSharingIncrementalCountsMatchRescan(t *testing.T) {
	s := NewSharing()
	events := make([]trace.Event, 50000)
	r := uint64(12345)
	for i := range events {
		r = r*2862933555777941757 + 3037000493
		addr := (r >> 16) % (1 << 18)
		kind := trace.KindLoad
		if r&2 == 0 {
			kind = trace.KindStore
		}
		events[i] = trace.Event{Kind: kind, Addr: addr, Size: 4, Count: 1, Tid: uint8(r % 8)}
	}
	feedChunked(12345, events, s)
	shared, sharers, lines := 0, 0, 0
	s.forEachLine(func(_, mask uint64) {
		n := 0
		for m := mask; m != 0; m &= m - 1 {
			n++
		}
		if n > 1 {
			shared++
		}
		sharers += n
		lines++
	})
	if s.TotalLines() != lines {
		t.Fatalf("incremental TotalLines = %d, rescan = %d", s.TotalLines(), lines)
	}
	if s.SharedLines() != shared {
		t.Fatalf("incremental SharedLines = %d, rescan = %d", s.SharedLines(), shared)
	}
	want := float64(sharers) / float64(lines)
	if got := s.MeanSharers(); got != want {
		t.Fatalf("MeanSharers = %v, rescan = %v", got, want)
	}
}
