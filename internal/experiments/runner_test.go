package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sizes"
)

// TestContextSingleflight hammers one memoization key from many
// goroutines and asserts the characterization ran exactly once — the
// latent data race the concurrent runner would otherwise hit.
func TestContextSingleflight(t *testing.T) {
	var runs atomic.Int32
	orig := characterizeGPU
	characterizeGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
		runs.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		return gpusim.NewStats(cfg.Name), nil
	}
	defer func() { characterizeGPU = orig }()

	ctx := NewContext()
	ctx.Replay = false // pin the stubbed non-replay path
	b := kernels.All()[0]
	cfg := gpusim.Base8SM()
	const callers = 16
	results := make([]*gpusim.Stats, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := ctx.GPU(b, cfg)
			if err != nil {
				t.Error(err)
			}
			results[i] = s
		}(i)
	}
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("characterization ran %d times, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("callers observed different memoized results")
		}
	}
}

// TestContextSingleflightSharesErrors pins that a failure is shared, not
// memoized: concurrent callers of a failing key see one run, and the
// next call runs again.
func TestContextSingleflightSharesErrors(t *testing.T) {
	var runs atomic.Int32
	release := make(chan struct{})
	orig := characterizeGPU
	characterizeGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
		runs.Add(1)
		<-release
		return nil, fmt.Errorf("boom")
	}
	defer func() { characterizeGPU = orig }()

	ctx := NewContext()
	ctx.Replay = false // pin the stubbed non-replay path
	b := kernels.All()[0]
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ctx.GPU(b, gpusim.Base8SM()); err == nil {
				t.Error("expected the shared error")
			}
		}()
	}
	waitParked(t, callers)
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("failing characterization ran %d times for %d concurrent callers, want 1", got, callers)
	}
	if _, err := ctx.GPU(b, gpusim.Base8SM()); err == nil {
		t.Fatal("expected the error again")
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("failing characterization ran %d times after a retry, want 2", got)
	}
}

// TestContextPanicReleasesWaiters pins that a panicking characterization
// fails every caller waiting on its key instead of blocking them for
// good, and leaves nothing cached: the next caller recomputes.
func TestContextPanicReleasesWaiters(t *testing.T) {
	var runs atomic.Int32
	release := make(chan struct{})
	orig := characterizeGPU
	characterizeGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
		if runs.Add(1) == 1 {
			<-release
			panic("kaboom")
		}
		return gpusim.NewStats(cfg.Name), nil
	}
	defer func() { characterizeGPU = orig }()

	ctx := NewContext()
	ctx.Replay = false // pin the stubbed non-replay path
	b := kernels.All()[0]
	cfg := gpusim.Base8SM()
	// call runs ctx.GPU on its own goroutine; a panic counts as an error.
	call := func() <-chan error {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- fmt.Errorf("panic: %v", p)
				}
			}()
			_, err := ctx.GPU(b, cfg)
			done <- err
		}()
		return done
	}
	wait := func(who string, done <-chan error) error {
		t.Helper()
		select {
		case err := <-done:
			return err
		case <-time.After(2 * time.Second):
			t.Fatalf("%s still blocked after 2s", who)
			return nil
		}
	}

	first := call()
	waiter := call()
	waitParked(t, 2)
	close(release)
	if err := wait("the panicking caller", first); err == nil {
		t.Fatal("the panicking caller succeeded")
	}
	if err := wait("a caller waiting on the panicking call", waiter); err == nil {
		t.Fatal("a caller waiting on the panicking call succeeded")
	}
	if err := wait("a later caller", call()); err != nil {
		t.Fatalf("a later caller: %v", err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("characterization ran %d times, want 2 (the panic and one recomputation)", got)
	}
}

// TestMemoHitAllocs pins that a memory hit allocates nothing: it is the
// path nearly every simd request takes, and the store key it must not
// compute costs 71 allocations.
func TestMemoHitAllocs(t *testing.T) {
	orig := characterizeGPU
	characterizeGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
		return gpusim.NewStats(cfg.Name), nil
	}
	defer func() { characterizeGPU = orig }()

	ctx, _ := storeContext(t, t.TempDir())
	ctx.ShardWorkers = 2
	b := kernels.All()[0]
	cfg := gpusim.Base8SM()
	if _, err := ctx.GPU(b, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ctx.GPU(b, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a memory hit allocates %.1f times, want 0", allocs)
	}
}

// waitParked blocks until n goroutines are parked on a channel receive
// inside Context.GPUAt: the caller running a stubbed characterization
// and those waiting on its in-flight call.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, "experiments.(*Context).GPUAt(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers parked after 10s", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMemoKeyedBySize is the memoization half of the size-axis
// regression: two requests for the same benchmark under the same
// configuration that differ only in problem-size class must each run
// their own characterization — before the size class joined gpuKey they
// silently shared one entry, so whichever class ran first poisoned the
// other's figures.
func TestMemoKeyedBySize(t *testing.T) {
	var runs atomic.Int32
	orig := characterizeGPU
	characterizeGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
		runs.Add(1)
		return gpusim.NewStats(size.String()), nil
	}
	defer func() { characterizeGPU = orig }()

	ctx := NewContext()
	ctx.Replay = false // pin the stubbed non-replay path
	b := kernels.All()[0]
	cfg := gpusim.Base8SM()
	stTest, err := ctx.GPUAt(b, sizes.Test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stLarge, err := ctx.GPUAt(b, sizes.Large, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("characterization ran %d times for two size classes, want 2", got)
	}
	if stTest == stLarge {
		t.Fatal("test and large classes shared one memoized result")
	}
	// Same instance again: memoized, no third run.
	again, err := ctx.GPUAt(b, sizes.Test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != stTest {
		t.Fatal("repeat request was not served from the memo")
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("characterization ran %d times after a repeat request, want 2", got)
	}
}

// TestRunConcurrentOrdering checks that outcomes and streamed delivery
// both follow input order regardless of completion order.
func TestRunConcurrentOrdering(t *testing.T) {
	const n = 8
	var exps []*Experiment
	for i := 0; i < n; i++ {
		i := i
		exps = append(exps, &Experiment{
			ID:    fmt.Sprintf("exp%d", i),
			Title: fmt.Sprintf("experiment %d", i),
			Run: func(ctx *Context) (*Result, error) {
				// Early experiments sleep longest, so completion order is
				// roughly reversed from input order.
				time.Sleep(time.Duration(n-i) * 5 * time.Millisecond)
				if i == 3 {
					return nil, fmt.Errorf("exp%d failed", i)
				}
				return &Result{ID: fmt.Sprintf("exp%d", i)}, nil
			},
		})
	}
	var delivered []string
	outcomes := RunConcurrent(NewContext(), exps, 4, func(o Outcome) {
		delivered = append(delivered, o.Experiment.ID)
	})
	if len(outcomes) != n || len(delivered) != n {
		t.Fatalf("got %d outcomes, %d deliveries, want %d", len(outcomes), len(delivered), n)
	}
	for i, o := range outcomes {
		want := fmt.Sprintf("exp%d", i)
		if o.Experiment.ID != want || delivered[i] != want {
			t.Fatalf("position %d: outcome %s, delivered %s, want %s",
				i, o.Experiment.ID, delivered[i], want)
		}
		if i == 3 {
			if o.Err == nil {
				t.Fatal("exp3 error lost")
			}
		} else if o.Err != nil || o.Result == nil {
			t.Fatalf("exp%d: unexpected outcome %+v", i, o)
		}
	}
}

func TestRunConcurrentNoDeliver(t *testing.T) {
	exps := []*Experiment{{
		ID: "one",
		Run: func(ctx *Context) (*Result, error) {
			return &Result{ID: "one"}, nil
		},
	}}
	outcomes := RunConcurrent(NewContext(), exps, 0, nil)
	if len(outcomes) != 1 || outcomes[0].Result == nil {
		t.Fatalf("bad outcomes: %+v", outcomes)
	}
}

// TestContextSingleflightReplayPath is the singleflight test for the
// trace path: concurrent requests for several configurations of one
// benchmark must capture exactly once and replay the rest, with no
// duplicate captures racing through the per-benchmark gate.
func TestContextSingleflightReplayPath(t *testing.T) {
	var captures, replays atomic.Int32
	origCap, origRep := captureGPU, replayGPU
	captureGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, *gpusim.RunTrace, error) {
		captures.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		st, rt, err := origCap(b, size, cfg, false, nil)
		return st, rt, err
	}
	replayGPU = func(b *kernels.Benchmark, cfg gpusim.Config, rt *gpusim.RunTrace, r *obs.Registry) (*gpusim.Stats, error) {
		replays.Add(1)
		return origRep(b, cfg, rt, nil)
	}
	defer func() { captureGPU, replayGPU = origCap, origRep }()

	ctx := NewContext()
	ctx.Check = false
	b := kernels.All()[0]
	cfgs := []gpusim.Config{gpusim.Base(), gpusim.Base8SM(), gpusim.GTX280()}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, cfg := range cfgs {
			wg.Add(1)
			go func(cfg gpusim.Config) {
				defer wg.Done()
				if _, err := ctx.GPU(b, cfg); err != nil {
					t.Error(err)
				}
			}(cfg)
		}
	}
	wg.Wait()
	if got := captures.Load(); got != 1 {
		t.Fatalf("captured %d times, want 1", got)
	}
	if got := replays.Load(); got != int32(len(cfgs)-1) {
		t.Fatalf("replayed %d times, want %d", got, len(cfgs)-1)
	}
	c := ctx.TraceCounters()
	if c.Captures != 1 || c.Replays != uint64(len(cfgs)-1) {
		t.Fatalf("counters = %+v, want 1 capture, %d replays", c, len(cfgs)-1)
	}
}

// TestRunConcurrentPanicRecovery drives a mix of panicking, erroring and
// healthy experiments and asserts the runner delivers every outcome in
// order, converts panics to errors, wedges nowhere, and leaks no
// goroutines.
func TestRunConcurrentPanicRecovery(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 6
	var exps []*Experiment
	for i := 0; i < n; i++ {
		i := i
		exps = append(exps, &Experiment{
			ID: fmt.Sprintf("exp%d", i),
			Run: func(ctx *Context) (*Result, error) {
				switch i {
				case 1:
					panic("kaboom")
				case 4:
					return nil, fmt.Errorf("exp%d failed", i)
				}
				return &Result{ID: fmt.Sprintf("exp%d", i)}, nil
			},
		})
	}
	done := make(chan []Outcome, 1)
	var delivered []string
	go func() {
		done <- RunConcurrent(NewContext(), exps, 3, func(o Outcome) {
			delivered = append(delivered, o.Experiment.ID)
		})
	}()
	var outcomes []Outcome
	select {
	case outcomes = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunConcurrent wedged after a panicking experiment")
	}
	if len(outcomes) != n || len(delivered) != n {
		t.Fatalf("got %d outcomes, %d deliveries, want %d", len(outcomes), len(delivered), n)
	}
	for i, o := range outcomes {
		want := fmt.Sprintf("exp%d", i)
		if o.Experiment.ID != want || delivered[i] != want {
			t.Fatalf("position %d: outcome %s, delivered %s, want %s", i, o.Experiment.ID, delivered[i], want)
		}
		switch i {
		case 1:
			if o.Err == nil || !strings.Contains(o.Err.Error(), "panicked") {
				t.Fatalf("exp1: want panic error, got %v", o.Err)
			}
		case 4:
			if o.Err == nil {
				t.Fatal("exp4 error lost")
			}
		default:
			if o.Err != nil || o.Result == nil {
				t.Fatalf("exp%d: unexpected outcome %+v", i, o)
			}
		}
	}
	// Workers and the feeder must all have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, now)
	}
}
