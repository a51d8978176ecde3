package gpusim

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
)

// TestEpochBitIdenticalToSequential is the epoch engine's contract: for
// every epoch length (1 synchronizes every cycle; the default 64 is
// TestParallelBitIdenticalToSequential's leg) and worker count (counts
// above NumSMs clamp), live execution must produce byte-identical stats
// and identical functional outputs to the sequential path — on the
// paper baseline (no data caches, so λ is the full DRAM latency) and on
// Fermi (L1 + unified L2, a short λ that exercises frequent parking).
func TestEpochBitIdenticalToSequential(t *testing.T) {
	for _, base := range []Config{Base8SM(), GTX480(SharedBias)} {
		seqStats, seqOut := runDeterminismWorkload(t, base)
		want := statsJSON(t, seqStats)
		for _, epoch := range []int{1, 2, 8} {
			for _, workers := range []int{2, 3, 8, 16} {
				cfg := base
				cfg.ShardWorkers = workers
				cfg.EpochCycles = epoch
				gotStats, gotOut := runDeterminismWorkload(t, cfg)
				if got := statsJSON(t, gotStats); got != want {
					t.Errorf("%s workers=%d epoch=%d: stats diverge from sequential\n got: %s\nwant: %s",
						base.Name, workers, epoch, got, want)
				}
				for i := range seqOut {
					if gotOut[i] != seqOut[i] {
						t.Fatalf("%s workers=%d epoch=%d: output[%d] = %g, sequential %g",
							base.Name, workers, epoch, i, gotOut[i], seqOut[i])
					}
				}
			}
		}
	}
}

// TestEpochBenignCrossCTAWrites runs the BFS idiom on the epoch engine:
// CTAs on different shards store the same value to one global flag while
// every thread also reads kernel parameters. The stores happen on the
// kernel's one producer, so under -race this proves the shards share no
// functional memory and the per-SM event logs stay goroutine-private.
// The default epoch is TestParallelBenignCrossCTAWrites's leg.
func TestEpochBenignCrossCTAWrites(t *testing.T) {
	const grid, block = 32, 128
	run := func(workers, epoch int) (*Stats, []int32) {
		cfg := Base8SM()
		cfg.ShardWorkers = workers
		cfg.EpochCycles = epoch
		g, err := New(cfg)
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
		vals := make([]int32, 0, grid*block+1)
		for i := 0; i < grid*block; i++ {
			vals = append(vals, mem.ReadI32(isa.SpaceGlobal, out+uint64(i*4)))
		}
		vals = append(vals, mem.ReadI32(isa.SpaceGlobal, flag))
		return g.Stats, vals
	}
	seqStats, seqVals := run(1, 0)
	want := statsJSON(t, seqStats)
	for _, epoch := range []int{1, 8} {
		for _, workers := range []int{2, 4, 8} {
			parStats, parVals := run(workers, epoch)
			if got := statsJSON(t, parStats); got != want {
				t.Errorf("workers=%d epoch=%d: stats diverge\n got: %s\nwant: %s", workers, epoch, got, want)
			}
			for i := range seqVals {
				if parVals[i] != seqVals[i] {
					t.Fatalf("workers=%d epoch=%d: value[%d] = %d, sequential %d",
						workers, epoch, i, parVals[i], seqVals[i])
				}
			}
		}
	}
}

// TestEpochReplayBitIdentical replays a captured trace through the epoch
// path, at several epoch lengths, against live sequential execution.
func TestEpochReplayBitIdentical(t *testing.T) {
	const n = 4096
	rt := captureVecAdd(t, Base(), n)
	want := liveStats(t, Base8SM(), n)
	for _, epoch := range []int{8, 64, 256} {
		cfg := Base8SM()
		cfg.ShardWorkers = 3
		cfg.EpochCycles = epoch
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Replay(rt); err != nil {
			t.Fatalf("epoch=%d: %v", epoch, err)
		}
		if !reflect.DeepEqual(g.Stats, want) {
			t.Fatalf("epoch=%d: replay stats diverge from live sequential\nreplay %+v\nlive   %+v",
				epoch, g.Stats, want)
		}
	}
}

// TestEpochBarrierCrossingsReduced pins what the epoch length buys: at
// EpochCycles=64 the replay path must cross the worker barrier at least
// 8× less often than with per-cycle epochs, with identical Stats.
// Counted via the obs registry, so the assertion is host-independent.
func TestEpochBarrierCrossingsReduced(t *testing.T) {
	const n = 4096
	rt := captureVecAdd(t, Base(), n)
	run := func(epoch int) (*Stats, uint64) {
		cfg := Base8SM()
		cfg.ShardWorkers = 2
		cfg.EpochCycles = epoch
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := obs.New()
		g.SetObs(r)
		if err := g.Replay(rt); err != nil {
			t.Fatal(err)
		}
		return g.Stats, r.Counters()["gpusim.barrier.crossings"]
	}
	cycleStats, cycleCross := run(1)
	epochStats, epochCross := run(64)
	if !reflect.DeepEqual(cycleStats, epochStats) {
		t.Fatalf("stats diverge between epoch=1 and epoch=64 replay\nepoch=1  %+v\nepoch=64 %+v", cycleStats, epochStats)
	}
	if cycleCross == 0 || epochCross == 0 {
		t.Fatalf("barrier crossings not recorded: epoch=1 %d, epoch=64 %d", cycleCross, epochCross)
	}
	if cycleCross < 8*epochCross {
		t.Fatalf("epoch=64 crossings %d vs epoch=1 %d: reduction %.1f×, want ≥ 8×",
			epochCross, cycleCross, float64(cycleCross)/float64(epochCross))
	}
}

// TestEpochObsInvariants runs the epoch path with a registry attached
// (under -race in CI) and checks the cycle accounting invariants plus
// the epoch-specific counters.
func TestEpochObsInvariants(t *testing.T) {
	seqSt, seqR := runVecAddObs(t, Base8SM(), 4096)

	cfg := Base8SM()
	cfg.ShardWorkers = 3
	cfg.EpochCycles = 32
	epSt, epR := runVecAddObs(t, cfg, 4096)
	checkObsInvariants(t, cfg, epSt, epR)

	if !reflect.DeepEqual(*seqSt, *epSt) {
		t.Fatalf("epoch Stats diverge:\nseq:   %+v\nepoch: %+v", *seqSt, *epSt)
	}
	seqC, epC := seqR.Counters(), epR.Counters()
	if seqC["gpusim.cycles"] != epC["gpusim.cycles"] {
		t.Fatalf("gpusim.cycles: sequential %d, epoch %d", seqC["gpusim.cycles"], epC["gpusim.cycles"])
	}
	rounds := epC["gpusim.epoch.rounds"]
	if rounds == 0 {
		t.Fatal("epoch run recorded no rounds")
	}
	if cross := epC["gpusim.barrier.crossings"]; cross != rounds {
		t.Fatalf("barrier crossings %d != epoch rounds %d", cross, rounds)
	}
	if epC["gpusim.epoch.parked_loads"] == 0 {
		t.Fatal("vecadd loads never parked: the epoch path cannot have priced them via the coordinator")
	}
	if epC["gpusim.epoch.retire_holds"] == 0 {
		t.Fatal("no retire holds recorded: CTA dispatch cannot have been serialized")
	}
	if seqC["gpusim.epoch.rounds"] != 0 {
		t.Fatalf("sequential run recorded %d epoch rounds", seqC["gpusim.epoch.rounds"])
	}
}

// TestEpochFaultSurfaces asserts a functional fault on the epoch path
// comes back from Launch as an error, exactly like the sequential loop.
func TestEpochFaultSurfaces(t *testing.T) {
	b := isa.NewBuilder()
	addr, v := b.I(), b.I()
	b.MovI(addr, 1<<40) // far out of bounds
	b.MovI(v, 1)
	b.St(isa.I32, isa.SpaceGlobal, addr, 0, v)
	k := b.Build("oob")

	cfg := Base8SM()
	cfg.ShardWorkers = 2
	cfg.EpochCycles = 64
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = g.Launch(k, isa.Launch{Grid: 4, Block: 64}, isa.NewMemory())
	if err == nil || !strings.Contains(err.Error(), "exceeds arena") {
		t.Fatalf("out-of-bounds store on the epoch path: Launch returned %v", err)
	}
}

func TestEpochCyclesValidation(t *testing.T) {
	cfg := Base()
	cfg.EpochCycles = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative EpochCycles accepted")
	}
}

// TestSpinBarrierParked drives the barrier with more parties than
// GOMAXPROCS, forcing the parked (condition-variable) waiter path that
// oversubscribed worker counts take.
func TestSpinBarrierParked(t *testing.T) {
	parties := runtime.GOMAXPROCS(0) + 2
	const rounds = 200
	bar := newSpinBarrier(parties)
	if !bar.park {
		t.Fatalf("barrier with %d parties and GOMAXPROCS=%d did not choose parking", parties, runtime.GOMAXPROCS(0))
	}
	counts := make([]int, parties)
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var sense int32
			for r := 1; r <= rounds; r++ {
				counts[id]++
				bar.wait(&sense)
				for j, c := range counts {
					if c != r {
						t.Errorf("round %d: party %d sees counts[%d] = %d", r, id, j, c)
						return
					}
				}
				bar.wait(&sense)
			}
		}(p)
	}
	wg.Wait()
}
