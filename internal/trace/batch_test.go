package trace

import "testing"

// TestParallelMergeDropsExhaustedThreads: with heavily imbalanced
// per-thread streams, the tail of the merged stream must be the longest
// thread's events in granularity-sized batches, and every thread's stream
// must appear as an in-order subsequence.
func TestParallelMergeDropsExhaustedThreads(t *testing.T) {
	rec := &recorder{}
	h := NewHarness(4, rec)
	h.Granularity = 4
	blk := h.Code("tail", 16)
	a := h.Alloc(1 << 20)
	h.Parallel(func(tid int, c *Ctx) {
		c.At(blk)
		n := 4 // threads 0-2 fill exactly one turn...
		if tid == 3 {
			n = 40 // ...thread 3 runs 9 more rounds alone
		}
		for i := 0; i < n; i++ {
			c.Load(a+uint64(tid)<<12+uint64(i), 1)
		}
	})
	if len(rec.events) != 4+4+4+40 {
		t.Fatalf("got %d events", len(rec.events))
	}
	// One turn per thread in round one, then nine turns of thread 3.
	if rec.batches != 4+9 || rec.maxLen != h.Granularity {
		t.Fatalf("got %d batches of at most %d events, want 13 of at most %d",
			rec.batches, rec.maxLen, h.Granularity)
	}
	// After round one (16 events), only thread 3 remains.
	for i, e := range rec.events[16:] {
		if e.Tid != 3 {
			t.Fatalf("tail event %d on tid %d, want 3", i, e.Tid)
		}
	}
	// Thread 3's addresses stay in program order.
	for i := 17; i < len(rec.events); i++ {
		if rec.events[i].Addr <= rec.events[i-1].Addr {
			t.Fatalf("tail out of order at %d", i)
		}
	}
}

// TestBufferReuseAcrossRegions: pooled buffers recycled between regions
// and harnesses must never leak one region's events into another.
func TestBufferReuseAcrossRegions(t *testing.T) {
	for round := 0; round < 3; round++ {
		rec := &recorder{}
		h := NewHarness(8, rec)
		blk := h.Code("r", 8)
		a := h.Alloc(1 << 16)
		want := 0
		for region := 0; region < 4; region++ {
			h.Serial(func(c *Ctx) {
				c.At(blk)
				c.Store(a+uint64(region), 1)
			})
			h.Parallel(func(tid int, c *Ctx) {
				c.At(blk)
				for i := 0; i <= tid; i++ {
					c.Load(a+uint64(region*64+i), 1)
				}
			})
			want += 1 + (8*9)/2
		}
		if len(rec.events) != want {
			t.Fatalf("round %d: got %d events, want %d", round, len(rec.events), want)
		}
	}
}
