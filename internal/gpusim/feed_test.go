package gpusim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
)

// engines are the two event loops every failure test runs on.
var engines = []struct {
	name    string
	workers int
}{{"sequential", 0}, {"epoch", 2}}

// engineConfig is Base8SM on the named engine.
func engineConfig(workers int) Config {
	cfg := Base8SM()
	cfg.ShardWorkers = workers
	return cfg
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base: a launch must not leave its producer or shard workers behind.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// faultAtKernel stores out of bounds from CTA k only; every other CTA
// stores nothing.
func faultAtKernel(k int64) *isa.Kernel {
	b := isa.NewBuilder()
	cta, addr, v := b.I(), b.I(), b.I()
	p := b.P()
	b.Rd(cta, isa.SpecCta)
	b.SetpII(p, isa.CmpEQ, cta, k)
	b.If(p, func() {
		b.MovI(addr, 1<<40)
		b.MovI(v, 1)
		b.St(isa.I32, isa.SpaceGlobal, addr, 0, v)
	}, nil)
	return b.Build("faultat")
}

// TestLaunchFaultAtLaterCTA faults in a CTA the initial fill places and
// in one only a refill after a retire reaches (Base8SM holds 64 of these
// CTAs at once). Launch must return the fault on both engines,
// invalidate the attached capture, and leave no goroutine behind.
func TestLaunchFaultAtLaterCTA(t *testing.T) {
	for _, e := range engines {
		for _, k := range []int64{3, 100} {
			base := runtime.NumGoroutine()
			g, err := New(engineConfig(e.workers))
			if err != nil {
				t.Fatal(err)
			}
			tb := g.Capture()
			err = g.Launch(faultAtKernel(k), isa.Launch{Grid: 128, Block: 64}, isa.NewMemory())
			if err == nil || !strings.Contains(err.Error(), "exceeds arena") || !strings.Contains(err.Error(), "faultat") {
				t.Fatalf("%s, fault at CTA %d: Launch returned %v, want the out-of-bounds store", e.name, k, err)
			}
			if err := tb.Trace().Replayable(); err == nil || !strings.Contains(err.Error(), "launch failed") {
				t.Fatalf("%s, fault at CTA %d: capture not invalidated: %v", e.name, k, err)
			}
			waitGoroutines(t, base)
		}
	}
}

// TestProducerPanicBecomesError launches a kernel that reads a parameter
// with no Memory attached, which panics inside the interpreter on the
// producer goroutine. Launch must return the panic as an error on both
// engines instead of crashing the process.
func TestProducerPanicBecomesError(t *testing.T) {
	b := isa.NewBuilder()
	v := b.I()
	b.LdParamI(v, 0)
	k := b.Build("nomem")
	for _, e := range engines {
		base := runtime.NumGoroutine()
		g, err := New(engineConfig(e.workers))
		if err != nil {
			t.Fatal(err)
		}
		err = g.Launch(k, isa.Launch{Grid: 4, Block: 64}, nil)
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%s: Launch returned %v, want the producer's panic", e.name, err)
		}
		waitGoroutines(t, base)
	}
}

// TestReplayTruncatedStream replays a trace whose last warp stream lost
// its final byte, as a torn write to disk would leave it. Replay must
// return the decode error on both engines.
func TestReplayTruncatedStream(t *testing.T) {
	rt := captureVecAdd(t, Base(), 4096)
	cfg, launches, invalid := rt.Export()
	lt := *launches[0]
	lt.Warps = append([]isa.WarpTrace(nil), lt.Warps...)
	last := &lt.Warps[len(lt.Warps)-1]
	last.Data = last.Data[:len(last.Data)-1]
	torn := ImportRunTrace(cfg, []*isa.LaunchTrace{&lt}, invalid)
	for _, e := range engines {
		base := runtime.NumGoroutine()
		g, err := New(engineConfig(e.workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Replay(torn); err == nil || !strings.Contains(err.Error(), "exhausted") {
			t.Fatalf("%s: Replay returned %v, want the truncated stream's decode error", e.name, err)
		}
		waitGoroutines(t, base)
	}
}
