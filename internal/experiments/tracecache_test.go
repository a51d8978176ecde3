package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/sizes"
)

// tid builds a trace key at the default size class for cache tests.
func tid(bench string) traceID {
	return traceID{bench: bench, size: sizes.Default}
}

// captureSmall records a real (tiny) benchmark trace for cache tests.
func captureSmall(t *testing.T, abbrev string) *gpusim.RunTrace {
	t.Helper()
	for _, b := range kernels.All() {
		if b.Abbrev == abbrev {
			_, rt, err := core.CaptureGPU(b, gpusim.Base(), false)
			if err != nil {
				t.Fatalf("capture %s: %v", abbrev, err)
			}
			return rt
		}
	}
	t.Fatalf("no benchmark %s", abbrev)
	return nil
}

func TestTraceCacheLRUEviction(t *testing.T) {
	rt := captureSmall(t, "BP")
	size := rt.Bytes()
	// Cap that holds exactly two copies.
	tc := newTraceCache(2*size, nil)

	if evicted, cached := tc.insert(tid("A"), rt); !cached || len(evicted) != 0 {
		t.Fatalf("first insert: cached=%v evicted=%v", cached, evicted)
	}
	if evicted, cached := tc.insert(tid("B"), rt); !cached || len(evicted) != 0 {
		t.Fatalf("second insert: cached=%v evicted=%v", cached, evicted)
	}
	// Touch A so B becomes the LRU victim.
	if got, _ := tc.lookup(tid("A"), &gpusim.Config{}, false); got == nil {
		t.Fatal("lookup A missed")
	}
	evicted, cached := tc.insert(tid("C"), rt)
	if !cached || len(evicted) != 1 || evicted[0] != tid("B").String() {
		t.Fatalf("third insert: cached=%v evicted=%v, want [%s]", cached, evicted, tid("B"))
	}
	if got, _ := tc.lookup(tid("B"), &gpusim.Config{}, false); got != nil {
		t.Fatal("B still cached after eviction")
	}
	if got, _ := tc.lookup(tid("A"), &gpusim.Config{}, false); got == nil {
		t.Fatal("A evicted although recently used")
	}
	c := tc.snapshot()
	if c.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Evictions)
	}
	if c.Bytes != 2*size {
		t.Fatalf("Bytes = %d, want %d", c.Bytes, 2*size)
	}
}

func TestTraceCacheUncacheable(t *testing.T) {
	rt := captureSmall(t, "BP")
	tc := newTraceCache(rt.Bytes()-1, nil) // too small for the trace
	evicted, cached := tc.insert(tid("A"), rt)
	if cached || len(evicted) != 0 {
		t.Fatalf("oversized insert: cached=%v evicted=%v", cached, evicted)
	}
	c := tc.snapshot()
	if c.Uncacheable != 1 || c.Bytes != 0 {
		t.Fatalf("counters = %+v, want 1 uncacheable, 0 bytes", c)
	}
}

func TestTraceCacheFallbackReason(t *testing.T) {
	rt := captureSmall(t, "BP") // captured under Base (28 SMs)
	tc := newTraceCache(0, nil)
	tc.insert(tid("A"), rt)
	// Strict placement rejects a different SM count, so the lookup must
	// miss and surface the reason.
	cfg := gpusim.Base8SM()
	got, reason := tc.lookup(tid("A"), &cfg, true)
	if got != nil || reason == "" {
		t.Fatalf("lookup = %v, reason %q; want miss with a reason", got, reason)
	}
	tc.noteCapture(reason != "")
	c := tc.snapshot()
	if c.Captures != 1 || c.Fallbacks != 1 {
		t.Fatalf("counters = %+v, want 1 capture, 1 fallback", c)
	}
}

func TestTraceCacheStrictPlacement(t *testing.T) {
	rt := captureSmall(t, "BP") // captured under Base (28 SMs)
	tc := newTraceCache(0, nil)
	tc.insert(tid("A"), rt)
	cfg := gpusim.Base8SM()
	if got, _ := tc.lookup(tid("A"), &cfg, false); got == nil {
		t.Fatal("relaxed lookup across SM counts missed")
	}
	if got, reason := tc.lookup(tid("A"), &cfg, true); got != nil || reason == "" {
		t.Fatalf("strict lookup across SM counts = %v, reason %q; want miss with a reason", got, reason)
	}
	base := gpusim.Base()
	if got, _ := tc.lookup(tid("A"), &base, true); got == nil {
		t.Fatal("strict lookup under the capture config missed")
	}
}

// TestTraceCacheKeyedBySize is the trace-cache half of the size-axis
// regression: a trace captured at one size class must never be served
// to a lookup for the same benchmark at another class, even though the
// configurations are identical.
func TestTraceCacheKeyedBySize(t *testing.T) {
	rt := captureSmall(t, "BP")
	tc := newTraceCache(0, nil)
	tc.insert(traceID{bench: "BP", size: sizes.Test}, rt)
	base := gpusim.Base()
	if got, reason := tc.lookup(traceID{bench: "BP", size: sizes.Large}, &base, false); got != nil {
		t.Fatalf("trace captured at test served to a large lookup (reason %q)", reason)
	}
	if got, _ := tc.lookup(traceID{bench: "BP", size: sizes.Test}, &base, false); got == nil {
		t.Fatal("same-size lookup missed")
	}
}

func TestDefaultTraceCacheCap(t *testing.T) {
	tc := newTraceCache(0, nil)
	if tc.capBytes != DefaultTraceCacheBytes {
		t.Fatalf("capBytes = %d, want DefaultTraceCacheBytes", tc.capBytes)
	}
}
