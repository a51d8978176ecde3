package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sizes"
	"repro/internal/workloads"
)

// BenchmarkCPUCharacterize times the full 24-workload characterization
// pass — the cost behind every Figure 6-12 experiment — at one worker
// (pure pipeline throughput: batching + single-pass sweep) and at
// GOMAXPROCS workers (pool scaling on top). BENCH_cpu.json records the
// before/after numbers.
func BenchmarkCPUCharacterize(b *testing.B) {
	ws := workloads.All()
	run := func(b *testing.B, workers int) {
		b.Helper()
		var refs uint64
		for i := 0; i < b.N; i++ {
			ps := CharacterizeCPUAllObs(ws, sizes.Default, workers, nil)
			refs = 0
			for _, p := range ps {
				refs += p.MemRefs
			}
		}
		b.ReportMetric(float64(refs), "mem-refs")
	}
	b.Run("workers=1", func(b *testing.B) { run(b, 1) })
	if n := runtime.GOMAXPROCS(0); n > 1 {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) { run(b, n) })
	}
}
