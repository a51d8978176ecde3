package gpusim

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// BenchmarkGPUCharacterize times the full 12-benchmark GPU
// characterization pass on the base configuration — the cost behind every
// Figure 1-5 experiment and each Plackett-Burman run — single-threaded,
// with functional validation off so the number isolates the timing
// simulator. simbench/history.json keeps the before/after headline.
func BenchmarkGPUCharacterize(b *testing.B) {
	benches := kernels.All()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cycles = 0
		for _, bench := range benches {
			g, err := New(Base())
			if err != nil {
				b.Fatal(err)
			}
			in := bench.Instance()
			if err := in.Run(g); err != nil {
				b.Fatal(err)
			}
			cycles += g.Stats.Cycles
		}
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkShardScaling times trace replay of the full 12-benchmark
// suite across shard-worker counts and epoch lengths — the wall-clock
// axis behind Config.ShardWorkers and Config.EpochCycles. Traces are
// captured once under the base configuration (replay isolates the
// timing engines from functional execution), and each sub-benchmark
// reports the barrier crossings the epoch engine performed: once per
// round, which epoch 1 makes once per simulated cycle. Workers=1 is the
// sequential loop. No committed artifact records its host numbers; run
// it with go test -run '^$' -bench BenchmarkShardScaling.
func BenchmarkShardScaling(b *testing.B) {
	var traces []*RunTrace
	for _, bench := range kernels.All() {
		g, err := New(Base())
		if err != nil {
			b.Fatal(err)
		}
		tb := g.Capture()
		if err := bench.Instance().Run(g); err != nil {
			b.Fatal(err)
		}
		traces = append(traces, tb.Trace())
	}
	for _, workers := range []int{1, 2, 4} {
		for _, epoch := range []int{1, 64} {
			if workers == 1 && epoch > 1 {
				continue // the epoch engine needs ≥ 2 workers
			}
			name := fmt.Sprintf("workers=%d/epoch=%d", workers, epoch)
			b.Run(name, func(b *testing.B) {
				cfg := Base()
				cfg.ShardWorkers = workers
				cfg.EpochCycles = epoch
				reg := obs.New()
				var cycles uint64
				for i := 0; i < b.N; i++ {
					cycles = 0
					for _, rt := range traces {
						g, err := New(cfg)
						if err != nil {
							b.Fatal(err)
						}
						g.SetObs(reg)
						if err := g.Replay(rt); err != nil {
							b.Fatal(err)
						}
						cycles += g.Stats.Cycles
					}
				}
				b.ReportMetric(float64(cycles), "sim-cycles")
				b.ReportMetric(float64(reg.Counters()["gpusim.barrier.crossings"])/float64(b.N), "barrier-crossings/op")
			})
		}
	}
}

// benchALUKernel is an ALU-heavy kernel with a divergent guard and a
// loop — the shape the warp interpreter sees most — writing one result
// per thread so nothing is dead code.
func benchALUKernel() *isa.Kernel {
	bld := isa.NewBuilder()
	tid, base, acc, i, bound := bld.I(), bld.I(), bld.I(), bld.I(), bld.I()
	x := bld.F()
	p := bld.P()
	bld.Rd(tid, isa.SpecTid)
	bld.LdParamI(base, 0)
	bld.Mov(acc, tid)
	bld.I2F(x, tid)
	bld.IAndI(bound, tid, 15)
	bld.For(i, 0, bound, 1, func() {
		bld.IAdd(acc, acc, i)
		bld.IXor(acc, acc, tid)
		bld.FMulI(x, x, 1.0001)
		bld.FAddI(x, x, 0.5)
	})
	bld.SetpII(p, isa.CmpLT, tid, 16)
	bld.If(p, func() {
		bld.IAddI(acc, acc, 7)
	}, func() {
		bld.ISubI(acc, acc, 3)
	})
	xi := bld.I()
	bld.F2I(xi, x)
	bld.IAdd(acc, acc, xi)
	out := bld.I()
	bld.ShlI(out, tid, 3)
	bld.IAdd(out, out, base)
	bld.St(isa.I64, isa.SpaceGlobal, out, 0, acc)
	return bld.Build("benchalu")
}

// BenchmarkWarpExec times the warp interpreter alone: one full-warp CTA
// of the ALU kernel run to completion per iteration, no timing model.
func BenchmarkWarpExec(b *testing.B) {
	k := benchALUKernel()
	mem := isa.NewMemory()
	out := mem.AllocGlobal(32 * 8)
	mem.SetParamI(0, int64(out))
	launch := isa.Launch{Grid: 1, Block: 32}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		cta := isa.MakeCTA(k, 0, launch, mem)
		w := cta.Warps[0]
		var st isa.Step
		for !w.Done() {
			if err := w.Exec(cta.Env, &st); err != nil {
				b.Fatal(err)
			}
			instrs++
		}
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "warp-instrs/op")
}

// BenchmarkCoalescer times the per-warp coalescing hardware model on a
// strided 32-lane access pattern that folds into 8 distinct lines.
func BenchmarkCoalescer(b *testing.B) {
	cfg := Base()
	c := newCoalescer(&cfg)
	accesses := make([]isa.MemAccess, isa.WarpSize)
	for i := range accesses {
		accesses[i] = isa.MemAccess{Lane: i, Addr: uint64(i * 16), Size: 4}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines := c.lines(accesses, 0)
		if len(lines) != 8 {
			b.Fatalf("lines = %d, want 8", len(lines))
		}
	}
}
