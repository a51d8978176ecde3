package gpusim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
)

// captureVecAdd runs vecadd once under the capture config and returns
// the recorded trace.
func captureVecAdd(t *testing.T, cfg Config, n int) *RunTrace {
	t.Helper()
	k := vecAddKernel()
	mem, _ := setupVecAdd(n)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := g.Capture()
	if err := g.Launch(k, isa.Launch{Grid: (n + 255) / 256, Block: 256}, mem); err != nil {
		t.Fatal(err)
	}
	return tb.Trace()
}

// liveStats runs vecadd live under cfg and returns the device stats.
func liveStats(t *testing.T, cfg Config, n int) *Stats {
	t.Helper()
	k := vecAddKernel()
	mem, _ := setupVecAdd(n)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Launch(k, isa.Launch{Grid: (n + 255) / 256, Block: 256}, mem); err != nil {
		t.Fatal(err)
	}
	return g.Stats
}

// TestTraceReplayBitIdentical captures under the base config and replays
// under several timing configurations — including a different SM count
// and the sharded event loop — asserting Stats match live execution bit
// for bit.
func TestTraceReplayBitIdentical(t *testing.T) {
	const n = 4096
	rt := captureVecAdd(t, Base(), n)
	if rt.NumLaunches() != 1 || rt.Bytes() <= 0 {
		t.Fatalf("trace: %d launches, %d bytes", rt.NumLaunches(), rt.Bytes())
	}

	sharded := Base8SM()
	sharded.Name = "base8sm-sharded"
	sharded.ShardWorkers = 3
	for _, cfg := range []Config{Base(), Base8SM(), GTX280(), sharded} {
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Replay(rt); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		want := liveStats(t, cfg, n)
		if !reflect.DeepEqual(g.Stats, want) {
			t.Fatalf("%s: replay stats diverge from live execution\nreplay %+v\nlive   %+v", cfg.Name, g.Stats, want)
		}
	}
}

// TestTraceAtomicsInvalidate asserts a kernel containing an atomic
// invalidates its capture: the observed value of an atomic depends on
// the warp schedule, which any timing knob perturbs.
func TestTraceAtomicsInvalidate(t *testing.T) {
	b := isa.NewBuilder()
	ctr, one, d := b.I(), b.I(), b.I()
	b.LdParamI(ctr, 0)
	b.MovI(one, 1)
	b.AtomAdd(d, isa.SpaceGlobal, ctr, 0, one)
	k := b.Build("atomic")
	if !usesAtomics(k) {
		t.Fatal("usesAtomics missed the AtomAdd")
	}

	mem := isa.NewMemory()
	a := mem.AllocGlobal(8)
	mem.SetParamI(0, int64(a))
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	tb := g.Capture()
	if err := g.Launch(k, isa.Launch{Grid: 2, Block: 64}, mem); err != nil {
		t.Fatal(err)
	}
	rt := tb.Trace()
	if err := rt.Replayable(); err == nil || !strings.Contains(err.Error(), "atomics") {
		t.Fatalf("Replayable = %v, want atomics rejection", err)
	}
	g2, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Replay(rt); err == nil {
		t.Fatal("Replay accepted an atomics-invalidated trace")
	}
}

// TestTraceConcurrentLaunchInvalidates asserts a multi-kernel launch
// invalidates the capture: the concurrent-kernel path interleaves
// dispatch cursors across kernels and is not recorded.
func TestTraceConcurrentLaunchInvalidates(t *testing.T) {
	const n = 512
	k := vecAddKernel()
	memA, _ := setupVecAdd(n)
	memB, _ := setupVecAdd(n)
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	tb := g.Capture()
	launch := isa.Launch{Grid: (n + 255) / 256, Block: 256}
	err = g.LaunchConcurrent([]LaunchSpec{
		{Kernel: k, Launch: launch, Mem: memA},
		{Kernel: k, Launch: launch, Mem: memB},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := tb.Trace()
	if err := rt.Replayable(); err == nil || !strings.Contains(err.Error(), "concurrent") {
		t.Fatalf("Replayable = %v, want concurrent-launch rejection", err)
	}
	if rt.NumLaunches() != 0 || rt.Bytes() != 0 {
		t.Fatalf("invalidated trace retains %d launches, %d bytes", rt.NumLaunches(), rt.Bytes())
	}
}
