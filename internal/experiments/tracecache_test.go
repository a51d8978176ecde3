package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
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
			_, rt, err := core.CaptureGPUAt(b, sizes.Default, gpusim.Base(), false)
			if err != nil {
				t.Fatalf("capture %s: %v", abbrev, err)
			}
			return rt
		}
	}
	t.Fatalf("no benchmark %s", abbrev)
	return nil
}

// traceTier returns a new Context whose trace tier is bounded at limit
// bytes, and the "trace" event lines the tier prints.
func traceTier(limit int64) (*Context, *[]string) {
	ctx := NewContext()
	ctx.traces.limit = limit
	ctx.Obs = obs.New()
	lines := new([]string)
	ctx.Obs.OnEvent("trace", func(format string, args ...any) {
		*lines = append(*lines, fmt.Sprintf(format, args...))
	})
	return ctx, lines
}

// insert resolves id through the context's trace tier as a capture of rt.
func insert(ctx *Context, id traceID, rt *gpusim.RunTrace) {
	ctx.traces.get(id, source[*gpusim.RunTrace]{compute: func() (*gpusim.RunTrace, error) { return rt, nil }})
}

// cached reports whether id is a memory hit in the context's trace tier.
// A miss computes an error, which leaves nothing behind.
func cached(ctx *Context, id traceID) bool {
	_, err := ctx.traces.get(id, source[*gpusim.RunTrace]{compute: func() (*gpusim.RunTrace, error) {
		return nil, errors.New("miss")
	}})
	return err == nil
}

func TestTraceCacheLRUEviction(t *testing.T) {
	rt := captureSmall(t, "BP")
	size := rt.Bytes()
	// Cap that holds exactly two copies.
	ctx, lines := traceTier(2 * size)

	insert(ctx, tid("A"), rt)
	insert(ctx, tid("B"), rt)
	if len(*lines) != 0 {
		t.Fatalf("first two inserts logged %q", *lines)
	}
	// Touch A so B becomes the LRU victim.
	if !cached(ctx, tid("A")) {
		t.Fatal("lookup A missed")
	}
	insert(ctx, tid("C"), rt)
	want := fmt.Sprintf("evict    %s (cache over %d bytes)", tid("B"), 2*size)
	if len(*lines) != 1 || (*lines)[0] != want {
		t.Fatalf("third insert logged %q, want [%q]", *lines, want)
	}
	if cached(ctx, tid("B")) {
		t.Fatal("B still cached after eviction")
	}
	if !cached(ctx, tid("A")) {
		t.Fatal("A evicted although recently used")
	}
	c := ctx.TraceCounters()
	if c.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Evictions)
	}
	if c.Bytes != 2*size {
		t.Fatalf("Bytes = %d, want %d", c.Bytes, 2*size)
	}
}

func TestTraceCacheUncacheable(t *testing.T) {
	rt := captureSmall(t, "BP")
	ctx, lines := traceTier(rt.Bytes() - 1) // too small for the trace
	insert(ctx, tid("A"), rt)
	want := fmt.Sprintf("uncached %s: trace is %d bytes, cap %d", tid("A"), rt.Bytes(), rt.Bytes()-1)
	if len(*lines) != 1 || (*lines)[0] != want {
		t.Fatalf("oversized insert logged %q, want [%q]", *lines, want)
	}
	if cached(ctx, tid("A")) {
		t.Fatal("oversized trace cached")
	}
	c := ctx.TraceCounters()
	if c.Uncacheable != 1 || c.Bytes != 0 {
		t.Fatalf("counters = %+v, want 1 uncacheable, 0 bytes", c)
	}
}

// TestTraceCacheUnreplayableErrors pins what a capture that cannot
// replay does: the configuration that captured it gets its Stats, and
// every other configuration of the instance gets an error naming the
// reason, without a second capture, a replay or a live run.
func TestTraceCacheUnreplayableErrors(t *testing.T) {
	var live atomic.Int32
	origCap, origChar := captureGPU, characterizeGPU
	captureGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, *gpusim.RunTrace, error) {
		return gpusim.NewStats(cfg.Name), gpusim.ImportRunTrace(cfg, nil, "concurrent launch of 2 kernels"), nil
	}
	characterizeGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
		live.Add(1)
		return gpusim.NewStats(cfg.Name), nil
	}
	defer func() { captureGPU, characterizeGPU = origCap, origChar }()

	ctx := NewContext()
	b := kernels.All()[0]
	const configs = 5
	for ch := 1; ch <= configs; ch++ {
		cfg := gpusim.Base()
		cfg.MemChannels = ch
		cfg.Name = fmt.Sprintf("base-%dch", ch)
		_, err := ctx.GPU(b, cfg)
		switch {
		case ch == 1 && err != nil:
			t.Fatalf("capturing configuration: %v", err)
		case ch > 1 && (err == nil || !strings.HasSuffix(err.Error(), "trace not replayable: concurrent launch of 2 kernels")):
			t.Fatalf("%s: err = %v, want the trace's reason", cfg.Name, err)
		}
	}
	c := ctx.TraceCounters()
	if c.Captures != 1 || c.Replays != 0 || live.Load() != 0 {
		t.Fatalf("counters = %+v, %d live runs; want 1 capture, 0 replays, 0 live runs", c, live.Load())
	}
}

// TestTraceCacheKeyedBySize is the trace-tier half of the size-axis
// regression: a trace captured at one size class must never be served
// to a lookup for the same benchmark at another class, even though the
// configurations are identical.
func TestTraceCacheKeyedBySize(t *testing.T) {
	rt := captureSmall(t, "BP")
	ctx, _ := traceTier(DefaultTraceCacheBytes)
	insert(ctx, traceID{bench: "BP", size: sizes.Test}, rt)
	if cached(ctx, traceID{bench: "BP", size: sizes.Large}) {
		t.Fatal("trace captured at test served to a large lookup")
	}
	if !cached(ctx, traceID{bench: "BP", size: sizes.Test}) {
		t.Fatal("same-size lookup missed")
	}
}

func TestDefaultTraceCacheCap(t *testing.T) {
	if got := NewContext().traces.limit; got != DefaultTraceCacheBytes {
		t.Fatalf("trace tier bound = %d, want DefaultTraceCacheBytes", got)
	}
}
