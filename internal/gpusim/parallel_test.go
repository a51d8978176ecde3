package gpusim

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/isa"
)

// statsJSON canonicalizes stats for byte-comparison: encoding/json sorts
// map keys, so equal stats marshal to equal bytes.
func statsJSON(t *testing.T, s *Stats) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runDeterminismWorkload runs a fixed workload on a fresh device of the
// given configuration: two single-kernel launches, a barrier-heavy
// reduction, and one concurrent two-kernel launch, all on the same GPU
// so persistent cache and sharing-tracker state is exercised across
// launches. It returns the final stats and the functional outputs.
func runDeterminismWorkload(t *testing.T, cfg Config) (*Stats, []float32) {
	t.Helper()
	const n = 4096
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	memA, outA := setupVecAdd(n)
	if err := g.Launch(vecAddKernel(), isa.Launch{Grid: n / 256, Block: 256}, memA); err != nil {
		t.Fatal(err)
	}

	memB := isa.NewMemory()
	hot := memB.AllocGlobal(16 * 8192 * 4)
	memB.SetParamI(0, int64(hot))
	if err := g.Launch(memBoundKernel(), isa.Launch{Grid: 32, Block: 256}, memB); err != nil {
		t.Fatal(err)
	}

	memR := isa.NewMemory()
	red := memR.AllocGlobal(16 * 8)
	memR.SetParamI(0, int64(red))
	if err := g.Launch(reduceKernel(256), isa.Launch{Grid: 16, Block: 256}, memR); err != nil {
		t.Fatal(err)
	}

	memC, outC := setupVecAdd(n)
	memD := isa.NewMemory()
	reg := memD.AllocGlobal(16 * 8192 * 4)
	memD.SetParamI(0, int64(reg))
	if err := g.LaunchConcurrent([]LaunchSpec{
		{Kernel: vecAddKernel(), Launch: isa.Launch{Grid: n / 256, Block: 256}, Mem: memC},
		{Kernel: reuseKernel(), Launch: isa.Launch{Grid: 8, Block: 256}, Mem: memD},
	}); err != nil {
		t.Fatal(err)
	}

	out := make([]float32, 0, 2*n+16)
	for i := 0; i < n; i++ {
		out = append(out, memA.ReadF32(isa.SpaceGlobal, outA+uint64(i*4)))
		out = append(out, memC.ReadF32(isa.SpaceGlobal, outC+uint64(i*4)))
	}
	for i := 0; i < 16; i++ {
		out = append(out, float32(memR.ReadI64(isa.SpaceGlobal, red+uint64(i*8))))
	}
	return g.Stats, out
}

// TestParallelBitIdenticalToSequential is the shard-merge contract for
// ShardWorkers > 1 as callers set it, with EpochCycles left at 0 so the
// engine runs DefaultEpochCycles: for any worker count (including counts
// exceeding NumSMs, which clamp), the parallel path must produce
// byte-identical stats and identical functional outputs to the
// sequential path — on the paper baseline (no data caches) and on Fermi
// (L1 + unified L2). TestEpochBitIdenticalToSequential sweeps the other
// epoch lengths.
func TestParallelBitIdenticalToSequential(t *testing.T) {
	for _, base := range []Config{Base8SM(), GTX480(SharedBias)} {
		seqStats, seqOut := runDeterminismWorkload(t, base)
		want := statsJSON(t, seqStats)
		for _, workers := range []int{2, 3, 8, 16} {
			cfg := base
			cfg.ShardWorkers = workers
			gotStats, gotOut := runDeterminismWorkload(t, cfg)
			if got := statsJSON(t, gotStats); got != want {
				t.Errorf("%s workers=%d: stats diverge from sequential\n got: %s\nwant: %s",
					base.Name, workers, got, want)
			}
			for i := range seqOut {
				if gotOut[i] != seqOut[i] {
					t.Fatalf("%s workers=%d: output[%d] = %g, sequential %g",
						base.Name, workers, i, gotOut[i], seqOut[i])
				}
			}
		}
	}
}

// benignWriteKernel reproduces the BFS idiom that broke the first
// parallel implementation under the race detector: every thread writes
// the same value to one shared global flag (as different CTAs marking a
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

// TestParallelBenignCrossCTAWrites runs the BFS idiom at the default
// epoch: CTAs on different shards store the same value to the same
// global address, which must neither race (go test -race runs this) nor
// perturb results. TestEpochBenignCrossCTAWrites sweeps the other epoch
// lengths.
func TestParallelBenignCrossCTAWrites(t *testing.T) {
	const grid, block = 32, 128
	run := func(workers int) (*Stats, []int32) {
		cfg := Base8SM()
		cfg.ShardWorkers = workers
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
	seqStats, seqVals := run(1)
	for i, v := range seqVals[:grid*block] {
		if v != int32(i) {
			t.Fatalf("sequential out[%d] = %d, want %d", i, v, i)
		}
	}
	if seqVals[grid*block] != 1 {
		t.Fatalf("sequential flag = %d, want 1", seqVals[grid*block])
	}
	want := statsJSON(t, seqStats)
	for _, workers := range []int{2, 4, 8} {
		parStats, parVals := run(workers)
		if got := statsJSON(t, parStats); got != want {
			t.Errorf("workers=%d: stats diverge\n got: %s\nwant: %s", workers, got, want)
		}
		for i := range seqVals {
			if parVals[i] != seqVals[i] {
				t.Fatalf("workers=%d: value[%d] = %d, sequential %d", workers, i, parVals[i], seqVals[i])
			}
		}
	}
}

func TestShardWorkersValidation(t *testing.T) {
	cfg := Base()
	cfg.ShardWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative ShardWorkers accepted")
	}
}

func TestSpinBarrier(t *testing.T) {
	const parties, rounds = 4, 500
	bar := newSpinBarrier(parties)
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
				// The barrier's happens-before edges make every party's
				// increment visible here.
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
