// Benchmarks regenerating every table and figure of the paper, plus
// ablation benches for the design choices called out in DESIGN.md. Each
// experiment benchmark reports its wall time; simulator benches also
// report simulated cycles via ReportMetric.
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sizes"
	"repro/internal/workloads"
)

// sharedCtx caches characterizations across the experiment benchmarks so
// a full -bench=. run executes each simulation once, exactly like
// cmd/experiments.
var (
	sharedCtx     *experiments.Context
	sharedCtxOnce sync.Once
)

func ctx() *experiments.Context {
	sharedCtxOnce.Do(func() {
		sharedCtx = experiments.NewContext()
		sharedCtx.Check = false // validated separately by the test suite
	})
	return sharedCtx
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Run(ctx())
		if err != nil {
			b.Fatal(err)
		}
		if res.Text == "" {
			b.Fatalf("%s produced no artifact", id)
		}
	}
}

// --- One benchmark per paper table ---

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// --- One benchmark per paper figure ---

func BenchmarkFig1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkPB regenerates the Section III.E Plackett-Burman study.
func BenchmarkPB(b *testing.B) { benchExperiment(b, "pb") }

// BenchmarkDwarfs regenerates the Section V.B taxonomy analysis.
func BenchmarkDwarfs(b *testing.B) { benchExperiment(b, "dwarfs") }

// BenchmarkDivergence regenerates the divergence/sharing study.
func BenchmarkDivergence(b *testing.B) { benchExperiment(b, "divergence") }

// BenchmarkCorrelate regenerates the CPU/GPU correlation study.
func BenchmarkCorrelate(b *testing.B) { benchExperiment(b, "correlate") }

// BenchmarkConcurrentKernels regenerates the simultaneous-kernel study.
func BenchmarkConcurrentKernels(b *testing.B) { benchExperiment(b, "conc") }

// --- Full-sweep wall clock at 1 and N experiment workers ---

// BenchmarkFullSweep runs the complete experiment set through the
// concurrent runner on a fresh (uncached) context per iteration, at one
// worker and at GOMAXPROCS workers, to show the speedup the -parallel
// flag buys on the host. On a single-core machine the two sub-benchmarks
// coincide; the speedup materializes from 2 cores up. Historical
// headlines live in simbench/history.json.
func BenchmarkFullSweep(b *testing.B) {
	sweep := func(b *testing.B, workers int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			fresh := experiments.NewContext()
			fresh.Check = false
			for _, o := range experiments.RunConcurrent(fresh, experiments.All(), workers, nil) {
				if o.Err != nil {
					b.Fatalf("%s: %v", o.Experiment.ID, o.Err)
				}
				if o.Result == nil || o.Result.Text == "" {
					b.Fatalf("%s produced no artifact", o.Experiment.ID)
				}
			}
		}
	}
	b.Run("workers=1", func(b *testing.B) { sweep(b, 1) })
	n := runtime.GOMAXPROCS(0)
	if n > 1 {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) { sweep(b, n) })
	}
}

// --- Per-benchmark GPU simulation throughput ---

func BenchmarkGPUKernels(b *testing.B) {
	for _, bench := range kernels.All() {
		bench := bench
		b.Run(bench.Abbrev, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				st, err := core.CharacterizeGPU(bench, gpusim.Base(), false)
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// --- Per-workload CPU characterization throughput ---

func BenchmarkCPUWorkloads(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var refs uint64
			for i := 0; i < b.N; i++ {
				p := core.CharacterizeCPU(w)
				refs = p.MemRefs
			}
			b.ReportMetric(float64(refs), "mem-refs")
		})
	}
}

// --- Characterization cost along the problem-size axis ---

// BenchmarkCharacterizeBySize tracks how pipeline cost scales with the
// size axis: one representative GPU benchmark and one CPU workload at
// every size class. The test-class legs double as the CI smoke for the
// size-parameterized entry points.
func BenchmarkCharacterizeBySize(b *testing.B) {
	bench, ok := kernels.ByAbbrev("SRAD")
	if !ok {
		b.Fatal("unknown benchmark SRAD")
	}
	w, ok := workloads.ByName("srad")
	if !ok {
		b.Fatal("unknown workload srad")
	}
	for _, c := range sizes.Classes() {
		c := c
		b.Run("gpu/SRAD/"+c.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				st, err := core.CharacterizeGPUAt(bench, c, gpusim.Base(), false)
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
		b.Run("cpu/srad/"+c.String(), func(b *testing.B) {
			var refs uint64
			for i := 0; i < b.N; i++ {
				p := core.CharacterizeCPUAt(w, c)
				refs = p.MemRefs
			}
			b.ReportMetric(float64(refs), "mem-refs")
		})
	}
}

// --- Ablations for DESIGN.md's called-out mechanisms ---

// ablate runs one benchmark on a base and a modified configuration and
// reports both simulated cycle counts.
func ablate(b *testing.B, abbrev string, modify func(*gpusim.Config)) {
	b.Helper()
	bench, ok := kernels.ByAbbrev(abbrev)
	if !ok {
		b.Fatalf("unknown benchmark %s", abbrev)
	}
	var on, off uint64
	for i := 0; i < b.N; i++ {
		base := gpusim.Base()
		st, err := core.CharacterizeGPU(bench, base, false)
		if err != nil {
			b.Fatal(err)
		}
		on = st.Cycles
		mod := gpusim.Base()
		modify(&mod)
		st, err = core.CharacterizeGPU(bench, mod, false)
		if err != nil {
			b.Fatal(err)
		}
		off = st.Cycles
	}
	b.ReportMetric(float64(on), "cycles-base")
	b.ReportMetric(float64(off), "cycles-ablated")
}

// BenchmarkAblationCoalescing disables the memory coalescer for CFD (a
// gather-heavy kernel): per-lane transactions inflate DRAM traffic.
func BenchmarkAblationCoalescing(b *testing.B) {
	ablate(b, "CFD", func(c *gpusim.Config) {
		c.Name = "base-nocoalesce"
		c.NoCoalescing = true
	})
}

// BenchmarkAblationBankConflicts disables bank-conflict modeling for NW,
// whose 16-wide tiles conflict copiously (Section III.E).
func BenchmarkAblationBankConflicts(b *testing.B) {
	ablate(b, "NW", func(c *gpusim.Config) {
		c.Name = "base-nobankconflict"
		c.BankConflicts = false
	})
}

// BenchmarkAblationL1 adds a Fermi-style L1+L2 to the base configuration
// for BFS, the paper's poster child for cache-sensitive global traffic.
func BenchmarkAblationL1(b *testing.B) {
	ablate(b, "BFS", func(c *gpusim.Config) {
		c.Name = "base-with-l1"
		c.L1CacheKB = 48
		c.L2CacheKB = 768
	})
}

// BenchmarkSIMTStack measures raw warp-execution throughput on a
// divergent microkernel — the cost of the reconvergence mechanism itself.
func BenchmarkSIMTStack(b *testing.B) {
	kb := isa.NewBuilder()
	tid, acc, j := kb.I(), kb.I(), kb.I()
	p := kb.P()
	kb.Rd(tid, isa.SpecTid)
	kb.MovI(acc, 0)
	kb.ForI(j, 0, 64, 1, func() {
		bit := kb.I()
		kb.IAnd(bit, tid, j)
		kb.SetpII(p, isa.CmpEQ, bit, 0)
		kb.If(p, func() {
			kb.IAddI(acc, acc, 1)
		}, func() {
			kb.ISubI(acc, acc, 1)
		})
	})
	k := kb.Build("divergent-micro")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ex isa.Functional
		if err := ex.Launch(k, isa.Launch{Grid: 64, Block: 256}, isa.NewMemory()); err != nil {
			b.Fatal(err)
		}
	}
}
