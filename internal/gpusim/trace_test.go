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

// ticketKernel is a kernel whose atomic's return value sets its store
// address: each thread takes a ticket from a global counter and writes
// its global id to slot (7·ticket) mod n of the output.
func ticketKernel() *isa.Kernel {
	b := isa.NewBuilder()
	tid, cta, ntid, gid := b.I(), b.I(), b.I(), b.I()
	ctr, out, n, one, ticket := b.I(), b.I(), b.I(), b.I(), b.I()
	b.Rd(tid, isa.SpecTid)
	b.Rd(cta, isa.SpecCta)
	b.Rd(ntid, isa.SpecNTid)
	b.IMul(gid, cta, ntid)
	b.IAdd(gid, gid, tid)
	b.LdParamI(ctr, 0)
	b.LdParamI(out, 1)
	b.LdParamI(n, 2)
	b.MovI(one, 1)
	b.AtomAdd(ticket, isa.SpaceGlobal, ctr, 0, one)
	b.IMulI(ticket, ticket, 7)
	b.IRem(ticket, ticket, n)
	b.ShlI(ticket, ticket, 2)
	b.IAdd(ticket, ticket, out)
	b.St(isa.I32, isa.SpaceGlobal, ticket, 0, gid)
	return b.Build("ticket")
}

// runTicket launches the ticket kernel over n threads on g and checks
// that every thread wrote exactly one slot.
func runTicket(t *testing.T, g *GPU, n int) {
	t.Helper()
	mem := isa.NewMemory()
	ctr := mem.AllocGlobal(4)
	out := mem.AllocGlobal(4 * n)
	mem.SetParamI(0, int64(ctr))
	mem.SetParamI(1, int64(out))
	mem.SetParamI(2, int64(n))
	if err := g.Launch(ticketKernel(), isa.Launch{Grid: n / 128, Block: 128}, mem); err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		v := mem.ReadI32(isa.SpaceGlobal, out+uint64(4*i))
		if v < 0 || int(v) >= n || seen[v] {
			t.Fatalf("%s: slot %d holds %d, a repeat or out of range", g.cfg.Name, i, v)
		}
		seen[v] = true
	}
}

// TestTraceAtomicsReplay captures a kernel whose atomic's return value
// sets its store address and requires its replays to equal live runs on
// every configuration: the producer runs CTAs in index order whatever
// the timing model, so the ticket each thread draws does not depend on
// the configuration.
func TestTraceAtomicsReplay(t *testing.T) {
	const n = 1024
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	tb := g.Capture()
	runTicket(t, g, n)
	rt := tb.Trace()
	if err := rt.Replayable(); err != nil {
		t.Fatal(err)
	}

	sharded := Base8SM()
	sharded.Name = "base8sm-sharded"
	sharded.ShardWorkers = 3
	channels := Base()
	channels.Name = "base-4ch"
	channels.MemChannels = 4
	for _, cfg := range []Config{Base(), Base8SM(), channels, GTX280(), GTX480(SharedBias), GTX480(L1Bias), sharded} {
		replay, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.Replay(rt); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		live, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runTicket(t, live, n)
		if !reflect.DeepEqual(replay.Stats, live.Stats) {
			t.Fatalf("%s: replay stats diverge from live execution\nreplay %+v\nlive   %+v", cfg.Name, replay.Stats, live.Stats)
		}
	}
}

// TestTraceConcurrentLaunchInvalidates asserts a multi-kernel launch
// invalidates the capture, which Replay then refuses: Replay runs one
// kernel per launch.
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
	g2, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Replay(rt); err == nil || !strings.Contains(err.Error(), "concurrent") {
		t.Fatalf("Replay = %v, want concurrent-launch rejection", err)
	}
}
