package gpusim

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/obs"
)

// waitGoroutines fails the test unless the goroutine count falls back to
// base: a launch must not leave its producer or timing goroutine behind.
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
// CTAs at once). Launch must return the fault, invalidate the attached
// capture, and leave no goroutine behind.
func TestLaunchFaultAtLaterCTA(t *testing.T) {
	for _, k := range []int64{3, 100} {
		base := runtime.NumGoroutine()
		g, err := New(Base8SM())
		if err != nil {
			t.Fatal(err)
		}
		tb := g.Capture()
		err = g.Launch(faultAtKernel(k), isa.Launch{Grid: 128, Block: 64}, isa.NewMemory())
		if err == nil || !strings.Contains(err.Error(), "exceeds arena") || !strings.Contains(err.Error(), "faultat") {
			t.Fatalf("fault at CTA %d: Launch returned %v, want the out-of-bounds store", k, err)
		}
		g.Wait()
		if err := tb.Trace().Replayable(); err == nil || !strings.Contains(err.Error(), "launch failed") {
			t.Fatalf("fault at CTA %d: capture not invalidated: %v", k, err)
		}
		waitGoroutines(t, base)
	}
}

// TestProducerPanicBecomesError launches a kernel that reads a parameter
// with no Memory attached, which panics inside the interpreter on the
// producer goroutine. Launch must return the panic as an error instead
// of crashing the process.
func TestProducerPanicBecomesError(t *testing.T) {
	b := isa.NewBuilder()
	v := b.I()
	b.LdParamI(v, 0)
	k := b.Build("nomem")
	base := runtime.NumGoroutine()
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	err = g.Launch(k, isa.Launch{Grid: 4, Block: 64}, nil)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Launch returned %v, want the producer's panic", err)
	}
	g.Wait()
	waitGoroutines(t, base)
}

// benignWriteKernel reproduces the BFS idiom: every thread writes the
// same value to one shared global flag (as different CTAs marking a
// common neighbor do) in addition to its own output slot.
func benignWriteKernel() *isa.Kernel {
	b := isa.NewBuilder()
	tid, cta, ntid, gid, addr, base, flagAddr, one := b.I(), b.I(), b.I(), b.I(), b.I(), b.I(), b.I(), b.I()
	b.Rd(tid, isa.SpecTid)
	b.Rd(cta, isa.SpecCta)
	b.Rd(ntid, isa.SpecNTid)
	b.LdParamI(base, 0)
	b.LdParamI(flagAddr, 1)
	b.MovI(one, 1)
	b.St(isa.I32, isa.SpaceGlobal, flagAddr, 0, one) // every thread, every CTA
	b.IMul(gid, cta, ntid)
	b.IAdd(gid, gid, tid)
	b.ShlI(addr, gid, 2)
	b.IAdd(addr, addr, base)
	b.St(isa.I32, isa.SpaceGlobal, addr, 0, gid)
	return b.Build("benignwrite")
}

// TestParallelBenignCrossCTAWrites runs the BFS idiom: CTAs store the
// same value to one global address while the launch's timing replays
// the CTAs the producer has already published. Under go test -race this
// proves the timing side reads no benchmark memory; every output slot
// and the flag must hold what the kernel wrote.
func TestParallelBenignCrossCTAWrites(t *testing.T) {
	const grid, block = 32, 128
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	mem := isa.NewMemory()
	out := mem.AllocGlobal(grid * block * 4)
	flag := mem.AllocGlobal(4)
	mem.SetParamI(0, int64(out))
	mem.SetParamI(1, int64(flag))
	if err := g.Launch(benignWriteKernel(), isa.Launch{Grid: grid, Block: block}, mem); err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	for i := 0; i < grid*block; i++ {
		if v := mem.ReadI32(isa.SpaceGlobal, out+uint64(i*4)); v != int32(i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
	if v := mem.ReadI32(isa.SpaceGlobal, flag); v != 1 {
		t.Fatalf("flag = %d, want 1", v)
	}
}

// panicScheduler issues as looseRoundRobin does, except that it panics
// when asked to pick on one chosen SM.
type panicScheduler struct{ on *smCaches }

func (p panicScheduler) pick(sm *smRT, now uint64) *warpRT {
	if sm.caches == p.on {
		panic("scheduler fault on the chosen SM")
	}
	return looseRoundRobin{}.pick(sm, now)
}

// TestEpochPanicBecomesError panics in the event loop's SM execution, on
// SM 0 and on SM 1, in a live launch and in a replay (it was written for
// the epoch engine, whose coordinator and worker ran those two SMs).
// Launch/Wait and Replay must return the panic as an error and leave no
// timing goroutine or producer behind.
func TestEpochPanicBecomesError(t *testing.T) {
	const n = 4096
	rt := captureVecAdd(t, Base(), n)
	runs := map[string]func(*GPU) error{
		"launch": func(g *GPU) error {
			mem, _ := setupVecAdd(n)
			if err := g.Launch(vecAddKernel(), isa.Launch{Grid: n / 256, Block: 256}, mem); err != nil {
				return err
			}
			return g.Wait()
		},
		"replay": func(g *GPU) error { return g.Replay(rt) },
	}
	for name, run := range runs {
		for sm := 0; sm < 2; sm++ {
			base := runtime.NumGoroutine()
			g, err := New(Base8SM())
			if err != nil {
				t.Fatal(err)
			}
			g.sched = panicScheduler{on: g.sms[sm]}
			if err := run(g); err == nil || !strings.Contains(err.Error(), "panicked: scheduler fault") {
				t.Fatalf("%s, panic on SM %d: got %v, want the scheduler's panic", name, sm, err)
			}
			waitGoroutines(t, base)
		}
	}
}

// TestReplayTruncatedStream replays a trace whose last warp stream lost
// its final byte, as a torn write to disk would leave it. Replay must
// return the decode error.
func TestReplayTruncatedStream(t *testing.T) {
	rt := captureVecAdd(t, Base(), 4096)
	cfg, launches, invalid := rt.Export()
	lt := *launches[0]
	lt.Warps = append([]isa.WarpTrace(nil), lt.Warps...)
	last := &lt.Warps[len(lt.Warps)-1]
	last.Data = last.Data[:len(last.Data)-1]
	torn := ImportRunTrace(cfg, []*isa.LaunchTrace{&lt}, invalid)
	base := runtime.NumGoroutine()
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Replay(torn); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("Replay returned %v, want the truncated stream's decode error", err)
	}
	waitGoroutines(t, base)
}

// gateScheduler issues as looseRoundRobin does once open is closed; until
// then every pick blocks, which holds a launch's timing pending.
type gateScheduler struct{ open chan struct{} }

func (s gateScheduler) pick(sm *smRT, now uint64) *warpRT {
	<-s.open
	return looseRoundRobin{}.pick(sm, now)
}

// loadThenFaultAt loads one global word in every CTA and then stores out
// of bounds from CTA k only, so a launch's timing prices global loads
// before it reaches the fault.
func loadThenFaultAt(k int64) *isa.Kernel {
	b := isa.NewBuilder()
	cta, addr, v := b.I(), b.I(), b.I()
	p := b.P()
	b.LdParamI(addr, 0)
	b.Ld(v, isa.I32, isa.SpaceGlobal, addr, 0)
	b.Rd(cta, isa.SpecCta)
	b.SetpII(p, isa.CmpEQ, cta, k)
	b.If(p, func() {
		b.MovI(addr, 1<<40)
		b.St(isa.I32, isa.SpaceGlobal, addr, 0, v)
	}, nil)
	return b.Build("loadfault")
}

// launchVecAdd launches a fresh 4096-element vector add on g.
func launchVecAdd(g *GPU) error {
	const n = 4096
	mem, _ := setupVecAdd(n)
	return g.Launch(vecAddKernel(), isa.Launch{Grid: n / 256, Block: 256}, mem)
}

// TestTimingPanicComesBackFromWait panics in the event loop, which runs
// on a launch's timing goroutine, in a live two-launch run. Wait must
// return the panic as an error, so must the next Launch, which now knows
// it, and no goroutine may be left behind.
func TestTimingPanicComesBackFromWait(t *testing.T) {
	const want = "panicked: scheduler fault"
	base := runtime.NumGoroutine()
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	g.sched = panicScheduler{on: g.sms[0]}
	for i := 1; i <= 2; i++ {
		// The panic may already be known when a launch's producer ends.
		if err := launchVecAdd(g); err != nil && !strings.Contains(err.Error(), want) {
			t.Fatalf("launch %d returned %v", i, err)
		}
	}
	if err := g.Wait(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Wait returned %v, want the scheduler's panic", err)
	}
	if err := launchVecAdd(g); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("the launch after the panic returned %v, want the scheduler's panic", err)
	}
	waitGoroutines(t, base)
}

// TestProducerFaultBehindPendingTiming faults in launch 2's producer
// while launch 1's timing is held pending. Launch 2 must return the
// fault, count as overlapped, and leave Stats equal to launch 1's alone
// once the held timing ends.
func TestProducerFaultBehindPendingTiming(t *testing.T) {
	base := runtime.NumGoroutine()
	alone, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	if err := launchVecAdd(alone); err != nil {
		t.Fatal(err)
	}
	wait(t, alone)

	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	r := obs.New()
	g.SetObs(r)
	open := make(chan struct{})
	release := sync.OnceFunc(func() { close(open) })
	defer release() // a failed check must not leave the timing held
	g.sched = gateScheduler{open}
	if err := launchVecAdd(g); err != nil {
		t.Fatalf("launch 1: %v", err)
	}
	// CTA 100 lies past the initial fill, so launch 2's timing runs CTAs,
	// and prices their loads, before it reaches the fault.
	mem := isa.NewMemory()
	mem.SetParamI(0, int64(mem.AllocGlobal(4)))
	err = g.Launch(loadThenFaultAt(100), isa.Launch{Grid: 128, Block: 64}, mem)
	if err == nil || !strings.Contains(err.Error(), "exceeds arena") {
		t.Fatalf("launch 2 returned %v, want its producer's fault", err)
	}
	if n := r.Counters()["gpusim.launch.overlapped"]; n != 1 {
		t.Fatalf("gpusim.launch.overlapped = %d, want 1", n)
	}
	release()
	if err := g.Wait(); err == nil || !strings.Contains(err.Error(), "exceeds arena") {
		t.Fatalf("Wait returned %v, want launch 2's fault", err)
	}
	if got, want := statsJSON(t, g.Stats), statsJSON(t, alone.Stats); got != want {
		t.Fatalf("Stats after the failed launch 2\n got: %s\nwant launch 1 alone: %s", got, want)
	}
	waitGoroutines(t, base)
}

// TestPipelineDepthBoundsRecordings holds launch 1's timing pending
// while six launches are issued. Launch 2's producer may run behind it,
// but launch 3 must wait for room, so while the timing is held exactly
// pipelineDepth launches count as overlapped: no more than
// pipelineDepth+1 launches' recordings are ever alive.
func TestPipelineDepthBoundsRecordings(t *testing.T) {
	base := runtime.NumGoroutine()
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	r := obs.New()
	g.SetObs(r)
	open := make(chan struct{})
	release := sync.OnceFunc(func() { close(open) })
	defer release() // a failed check must not leave the timing held
	g.sched = gateScheduler{open}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 6; i++ {
			if err := launchVecAdd(g); err != nil {
				done <- err
				return
			}
		}
		done <- g.Wait()
	}()
	overlapped := func() uint64 { return r.Counters()["gpusim.launch.overlapped"] }
	deadline := time.Now().Add(5 * time.Second)
	for overlapped() < pipelineDepth {
		if time.Now().After(deadline) {
			t.Fatalf("%d launches overlapped the held timing, want %d", overlapped(), pipelineDepth)
		}
		time.Sleep(time.Millisecond)
	}
	// Give a launch that ignored the bound time to get past the room.
	time.Sleep(50 * time.Millisecond)
	if n := overlapped(); n != pipelineDepth {
		t.Fatalf("%d launches overlapped the held timing, want %d", n, pipelineDepth)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if g.Stats.Launches != 6 {
		t.Fatalf("Stats hold %d launches, want 6", g.Stats.Launches)
	}
	waitGoroutines(t, base)
}
