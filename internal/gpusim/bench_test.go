package gpusim

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
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

// BenchmarkCoalescer times the per-warp coalescing hardware model on
// 32-lane patterns: a per-lane step whose 16-byte stride folds into 8
// distinct lines, and the same pattern as a replayed stride record,
// priced from the record; a half-warp record makes lanes 16-31 check
// the first half's lines.
func BenchmarkCoalescer(b *testing.B) {
	cfg := Base()
	perLane := &isa.Step{ActiveMask: fullMask, ActiveCount: isa.WarpSize}
	for i := 0; i < isa.WarpSize; i++ {
		perLane.Accesses = append(perLane.Accesses, isa.MemAccess{Lane: i, Addr: uint64(i * 16)})
	}
	strided := func(stride, off uint64) *isa.Step {
		return &isa.Step{ActiveMask: fullMask, ActiveCount: isa.WarpSize, Strided: true,
			Base: 0x10000, Stride: stride, HalfOff: off}
	}
	for _, bc := range []struct {
		name string
		st   *isa.Step
		want int
	}{
		{"lanes", perLane, 8},
		{"stride16", strided(16, 16<<4), 8},
		{"stride4", strided(4, 4<<4), 2},
		{"half128", strided(128, 1<<20), 32},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := newCoalescer(&cfg)
			for i := 0; i < b.N; i++ {
				if lines := c.lines(bc.st, 0); len(lines) != bc.want {
					b.Fatalf("lines = %d, want %d", len(lines), bc.want)
				}
			}
		})
	}
}
