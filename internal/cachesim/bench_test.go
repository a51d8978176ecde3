package cachesim

import (
	"testing"

	"repro/internal/trace"
)

// benchStream synthesizes a mixed-locality reference stream: eight
// threads, mostly unit-stride walks over private chunks with periodic
// jumps into a shared region — the access shape of the OpenMP workloads.
func benchStream(n int) []trace.Event {
	events := make([]trace.Event, 0, n)
	r := uint64(99991)
	var cursors [8]uint64
	for i := 0; i < n; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		tid := uint8(i >> 6 & 7) // granularity-64 thread turns
		var addr uint64
		if r%8 == 0 {
			addr = (r >> 20) % (6 << 20) // shared 6 MB region
		} else {
			cursors[tid] += 8
			addr = uint64(tid)<<24 + cursors[tid]%(2<<20)
		}
		kind := trace.KindLoad
		if r%4 == 0 {
			kind = trace.KindStore
		}
		events = append(events, trace.Event{Kind: kind, Addr: addr, Size: 8, Count: 1, Tid: tid})
	}
	return events
}

// BenchmarkSweep measures the single-pass stack-distance sweep.
func BenchmarkSweep(b *testing.B) {
	events := benchStream(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSweep()
		s.Events(events)
		if s.Accesses == 0 {
			b.Fatal("no accesses")
		}
	}
	b.ReportMetric(float64(len(events)), "events")
}

// BenchmarkNaiveSweep measures the retained eight-cache oracle on the
// same stream, for the speedup ratio kept in simbench/history.json.
func BenchmarkNaiveSweep(b *testing.B) {
	events := benchStream(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewNaiveSweep()
		s.Events(events)
		if s.Caches[0].Accesses == 0 {
			b.Fatal("no accesses")
		}
	}
	b.ReportMetric(float64(len(events)), "events")
}
