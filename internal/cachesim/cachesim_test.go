package cachesim

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func load(tid int, addr uint64) trace.Event {
	return trace.Event{Kind: trace.KindLoad, Addr: addr, Size: 4, Count: 1, Tid: uint8(tid)}
}

func store(tid int, addr uint64) trace.Event {
	return trace.Event{Kind: trace.KindStore, Addr: addr, Size: 4, Count: 1, Tid: uint8(tid)}
}

// loads is a single-threaded stream of 4-byte loads at the given addresses.
func loads(addrs ...uint64) []trace.Event {
	out := make([]trace.Event, len(addrs))
	for i, a := range addrs {
		out[i] = load(0, a)
	}
	return out
}

// lineWalk is n loads at consecutive line addresses from 0, repeated
// passes times.
func lineWalk(n, passes int) []trace.Event {
	var out []trace.Event
	for pass := 0; pass < passes; pass++ {
		for i := 0; i < n; i++ {
			out = append(out, load(0, uint64(i*LineSize)))
		}
	}
	return out
}

func TestMixCounting(t *testing.T) {
	var m Mix
	m.Events([]trace.Event{
		{Kind: trace.KindALU, Count: 10},
		{Kind: trace.KindBranch, Count: 2},
		load(0, 64),
		store(0, 128),
	})
	if m.Total() != 14 {
		t.Fatalf("Total = %d", m.Total())
	}
	alu, br, ld, st := m.Fractions()
	if alu != 10.0/14 || br != 2.0/14 || ld != 1.0/14 || st != 1.0/14 {
		t.Fatalf("fractions %v %v %v %v", alu, br, ld, st)
	}
	if m.MemRefs() != 2 {
		t.Fatalf("MemRefs = %d", m.MemRefs())
	}
}

func TestCacheHitsAfterWarm(t *testing.T) {
	c := NewSharedCache(128, 4)
	c.Events(loads(4096, 4100)) // same line
	if c.Accesses != 2 || c.Misses != 1 {
		t.Fatalf("accesses=%d misses=%d", c.Accesses, c.Misses)
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	// Stream over 2x the cache capacity twice: the second pass must still
	// miss (LRU over a streaming pattern evicts everything).
	c := NewSharedCache(128, 4)
	c.Events(lineWalk(2*128*1024/LineSize, 2))
	if c.MissRate() < 0.99 {
		t.Fatalf("streaming miss rate %.3f, want ~1", c.MissRate())
	}
}

func TestCacheFitsWorkingSet(t *testing.T) {
	// A working set smaller than the cache must hit after the first pass.
	c := NewSharedCache(1024, 4)
	c.Events(lineWalk(512*1024/LineSize/2, 4)) // quarter of capacity
	if got := c.MissRate(); got > 0.26 {
		t.Fatalf("resident working-set miss rate %.3f, want ~0.25", got)
	}
}

func TestSweepMonotone(t *testing.T) {
	// Larger caches never miss more on the same stream.
	s := NewSweep()
	stream := make([]uint64, 200000)
	r := uint64(1)
	for i := range stream {
		r = r*6364136223846793005 + 1442695040888963407
		stream[i] = (r >> 20) % (8 << 20) // 8 MB working set
	}
	s.Events(loads(stream...))
	rates := s.MissRates()
	for i := 1; i < len(rates); i++ {
		if rates[i] > rates[i-1]+1e-9 {
			t.Fatalf("miss rate not monotone: %v", rates)
		}
	}
	if _, err := s.ByKB(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ByKB(999); err == nil {
		t.Fatal("ByKB(999) succeeded")
	}
}

func TestStraddlingAccessTouchesTwoLines(t *testing.T) {
	c := NewSharedCache(128, 4)
	c.Events([]trace.Event{{Kind: trace.KindLoad, Addr: 62, Size: 8, Count: 1}})
	if c.Accesses != 2 {
		t.Fatalf("straddling access counted %d probes", c.Accesses)
	}
}

func TestSharingMetrics(t *testing.T) {
	s := NewSharing()
	// Thread 0 touches lines 0,1; thread 1 touches lines 1,2.
	s.Events([]trace.Event{
		load(0, 0),
		load(0, 64),
		load(1, 64), // access to line already owned by t0 -> shared
		load(1, 128),
		store(0, 64), // line 1 now shared; counts as shared access
	})
	if s.TotalLines() != 3 {
		t.Fatalf("TotalLines = %d", s.TotalLines())
	}
	if s.SharedLines() != 1 {
		t.Fatalf("SharedLines = %d", s.SharedLines())
	}
	if s.AccessesToShared != 2 {
		t.Fatalf("AccessesToShared = %d", s.AccessesToShared)
	}
	if got := s.SharedLineFraction(); got != 1.0/3 {
		t.Fatalf("SharedLineFraction = %v", got)
	}
	if got := s.SharedAccessFraction(); got != 2.0/5 {
		t.Fatalf("SharedAccessFraction = %v", got)
	}
}

func TestDataFootprintPages(t *testing.T) {
	f := NewDataFootprint()
	f.Events([]trace.Event{
		load(0, 0),
		load(0, 4095),  // same page
		store(1, 4096), // second page
		load(2, 1<<20), // third page
		{Kind: trace.KindALU, Count: 5},
	})
	if f.Pages() != 3 {
		t.Fatalf("Pages = %d", f.Pages())
	}
}

// TestQuickCacheInclusionProperty: for any access stream, a larger cache's
// miss count never exceeds a smaller one's (with identical geometry
// scaling, LRU stack property holds per set; we verify empirically).
func TestQuickCacheInclusionProperty(t *testing.T) {
	f := func(seed uint32) bool {
		small := NewSharedCache(128, 4)
		big := NewSharedCache(1024, 4)
		stream := make([]uint64, 20000)
		r := uint64(seed) + 1
		for i := range stream {
			r = r*2862933555777941757 + 3037000493
			stream[i] = (r >> 16) % (4 << 20)
		}
		events := loads(stream...)
		small.Events(events)
		big.Events(events)
		return big.Misses <= small.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
