package trace

import (
	"testing"
	"testing/quick"
)

// recorder captures the emitted stream for assertions, copying each
// batch (batches alias pooled buffers), and tallies the batch shapes.
type recorder struct {
	events  []Event
	batches int
	maxLen  int
}

func (r *recorder) Events(batch []Event) {
	if len(batch) == 0 {
		panic("empty batch delivered")
	}
	r.events = append(r.events, batch...)
	r.batches++
	r.maxLen = max(r.maxLen, len(batch))
}

func TestSerialOrdering(t *testing.T) {
	rec := &recorder{}
	h := NewHarness(4, rec)
	blk := h.Code("main", 100)
	a := h.Alloc(4096)
	h.Serial(func(c *Ctx) {
		c.At(blk)
		c.Load(a, 8)
		c.ALU(3)
		c.Store(a+8, 8)
		c.Branch(1)
	})
	if len(rec.events) != 4 {
		t.Fatalf("got %d events, want 4", len(rec.events))
	}
	kinds := []Kind{KindLoad, KindALU, KindStore, KindBranch}
	for i, k := range kinds {
		if rec.events[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v", i, rec.events[i].Kind, k)
		}
		if rec.events[i].Tid != 0 {
			t.Fatalf("serial event on tid %d", rec.events[i].Tid)
		}
	}
	if rec.events[1].Count != 3 {
		t.Fatalf("ALU count = %d", rec.events[1].Count)
	}

	// A serial region longer than emitChunk arrives in program order,
	// chunked: more than one batch, none longer than emitChunk.
	const n = 2*emitChunk + 1
	rec = &recorder{}
	h = NewHarness(1, rec)
	blk = h.Code("long", 8)
	base := h.Alloc(n)
	h.Serial(func(c *Ctx) {
		c.At(blk)
		for i := 0; i < n; i++ {
			c.Load(base+uint64(i), 1)
		}
	})
	if len(rec.events) != n {
		t.Fatalf("long serial region: got %d events, want %d", len(rec.events), n)
	}
	for i, e := range rec.events {
		if e.Addr != base+uint64(i) {
			t.Fatalf("long serial region: event %d out of order", i)
		}
	}
	if rec.batches <= 1 {
		t.Fatalf("expected chunked delivery, got %d batches", rec.batches)
	}
	if rec.maxLen > emitChunk {
		t.Fatalf("batch of %d events exceeds emitChunk %d", rec.maxLen, emitChunk)
	}
}

func TestParallelRoundRobinInterleave(t *testing.T) {
	rec := &recorder{}
	h := NewHarness(2, rec)
	h.Granularity = 2
	blk := h.Code("par", 10)
	a := h.Alloc(4096)
	h.Parallel(func(tid int, c *Ctx) {
		c.At(blk)
		for i := 0; i < 4; i++ {
			c.Load(a+uint64(tid*64+i), 4)
		}
	})
	if len(rec.events) != 8 {
		t.Fatalf("got %d events", len(rec.events))
	}
	wantTids := []uint8{0, 0, 1, 1, 0, 0, 1, 1}
	for i, w := range wantTids {
		if rec.events[i].Tid != w {
			t.Fatalf("event %d tid = %d, want %d (%v)", i, rec.events[i].Tid, w, rec.events)
		}
	}
}

func TestParallelDeterminism(t *testing.T) {
	run := func() []Event {
		rec := &recorder{}
		h := NewHarness(8, rec)
		blk := h.Code("k", 50)
		a := h.Alloc(1 << 16)
		h.Parallel(func(tid int, c *Ctx) {
			c.At(blk)
			for i := 0; i < 100+tid*13; i++ {
				c.Load(a+uint64((tid*997+i*31)%65536), 4)
				c.ALU(2)
			}
		})
		return rec.events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAllocDisjointPages(t *testing.T) {
	h := NewHarness(1)
	a := h.Alloc(100)
	b := h.Alloc(100)
	if a%4096 != 0 || b%4096 != 0 {
		t.Fatal("allocations not page-aligned")
	}
	if b <= a {
		t.Fatal("allocations overlap")
	}
}

func TestCodeBlocksAndFootprint(t *testing.T) {
	h := NewHarness(1)
	big := h.Code("big", 1024)  // 4096 bytes = 64 blocks
	small := h.Code("small", 8) // 32 bytes = 1 block
	_ = h.Code("unused", 4096)  // never executed: not counted
	h.Serial(func(c *Ctx) {
		c.At(big)
		c.ALU(1)
		c.At(small)
		c.ALU(1)
	})
	if got := h.TouchedInstrBlocks(); got != 64+1 {
		t.Fatalf("TouchedInstrBlocks = %d, want 65", got)
	}
	if big.Addr == small.Addr {
		t.Fatal("code blocks share addresses")
	}
}

func TestPCsAdvanceWithinBlock(t *testing.T) {
	rec := &recorder{}
	h := NewHarness(1, rec)
	blk := h.Code("loop", 4)
	a := h.Alloc(4096)
	h.Serial(func(c *Ctx) {
		c.At(blk)
		for i := 0; i < 6; i++ {
			c.Load(a, 4)
		}
	})
	// PCs must stay inside the block and wrap.
	lo, hi := blk.Addr, blk.Addr+4*4
	seen := map[uint64]bool{}
	for _, e := range rec.events {
		if e.PC < lo || e.PC >= hi {
			t.Fatalf("PC %#x outside block [%#x,%#x)", e.PC, lo, hi)
		}
		seen[e.PC] = true
	}
	if len(seen) != 4 {
		t.Fatalf("expected wrap over 4 PCs, saw %d", len(seen))
	}
}

func TestZeroCountEventsDropped(t *testing.T) {
	rec := &recorder{}
	h := NewHarness(1, rec)
	h.Serial(func(c *Ctx) {
		c.ALU(0)
		c.Branch(-1)
	})
	if len(rec.events) != 0 {
		t.Fatalf("zero-count events emitted: %d", len(rec.events))
	}
}

func TestInvalidThreadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0 threads")
		}
	}()
	NewHarness(0)
}

// TestQuickInterleavePreservesPerThreadOrder: whatever the granularity,
// the merged stream must contain each thread's events as a subsequence in
// program order, and contain exactly all events.
func TestQuickInterleavePreservesPerThreadOrder(t *testing.T) {
	f := func(granularity uint8, counts [4]uint8) bool {
		rec := &recorder{}
		h := NewHarness(4, rec)
		h.Granularity = 1 + int(granularity%16)
		blk := h.Code("q", 16)
		a := h.Alloc(1 << 20)
		h.Parallel(func(tid int, c *Ctx) {
			c.At(blk)
			n := int(counts[tid]%50) + 1
			for i := 0; i < n; i++ {
				// Encode (tid, seq) in the address.
				c.Load(a+uint64(tid)<<12+uint64(i), 1)
			}
		})
		// Per-thread sequence numbers must be strictly increasing.
		lastSeq := map[uint8]uint64{}
		total := 0
		for _, e := range rec.events {
			seq := e.Addr & 0xfff
			if prev, ok := lastSeq[e.Tid]; ok && seq <= prev {
				return false
			}
			lastSeq[e.Tid] = seq
			total++
		}
		want := 0
		for tid := 0; tid < 4; tid++ {
			want += int(counts[tid]%50) + 1
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
