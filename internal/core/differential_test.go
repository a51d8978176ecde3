package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/sizes"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The reference pipeline below re-implements the pre-batching consumers
// verbatim: per-event dispatch only (each fed one event at a time through
// perEvent), map rescans instead of incremental counters, and the naive
// eight-cache sweep. It shares no consumer with production except
// cachesim.NaiveSweep, the oracle itself. A profile built from it is the
// serial per-event pipeline the optimized path must reproduce
// bit-for-bit.

// perEvent feeds a batch to a per-event reference consumer in order.
type perEvent func(e *trace.Event)

func (f perEvent) Events(batch []trace.Event) {
	for i := range batch {
		f(&batch[i])
	}
}

type refMix struct{ alu, branch, load, store uint64 }

func (m *refMix) Event(e *trace.Event) {
	switch e.Kind {
	case trace.KindALU:
		m.alu += uint64(e.Count)
	case trace.KindBranch:
		m.branch += uint64(e.Count)
	case trace.KindLoad:
		m.load++
	case trace.KindStore:
		m.store++
	}
}

func (m *refMix) total() uint64 { return m.alu + m.branch + m.load + m.store }

func (m *refMix) fractions() (alu, branch, load, store float64) {
	t := float64(m.total())
	if t == 0 {
		return
	}
	return float64(m.alu) / t, float64(m.branch) / t, float64(m.load) / t, float64(m.store) / t
}

type refSharing struct {
	lines                            map[uint64]uint64
	memRefs, accShared, st, stShared uint64
}

func (s *refSharing) Event(e *trace.Event) {
	if e.Kind != trace.KindLoad && e.Kind != trace.KindStore {
		return
	}
	s.memRefs++
	line := e.Addr / cachesim.LineSize
	mask := s.lines[line]
	bit := uint64(1) << (e.Tid & 63)
	shared := mask&^bit != 0
	if shared {
		s.accShared++
	}
	if e.Kind == trace.KindStore {
		s.st++
		if shared {
			s.stShared++
		}
	}
	s.lines[line] = mask | bit
}

func (s *refSharing) sharedLineFraction() float64 {
	if len(s.lines) == 0 {
		return 0
	}
	n := 0
	for _, mask := range s.lines {
		if mask&(mask-1) != 0 {
			n++
		}
	}
	return float64(n) / float64(len(s.lines))
}

func (s *refSharing) meanSharers() float64 {
	if len(s.lines) == 0 {
		return 0
	}
	total := 0
	for _, mask := range s.lines {
		for m := mask; m != 0; m &= m - 1 {
			total++
		}
	}
	return float64(total) / float64(len(s.lines))
}

type refFootprint struct{ pages map[uint64]struct{} }

func (f *refFootprint) Event(e *trace.Event) {
	if e.Kind != trace.KindLoad && e.Kind != trace.KindStore {
		return
	}
	f.pages[e.Addr>>12] = struct{}{}
}

// referenceCharacterizeCPU is the retained serial per-event pipeline.
func referenceCharacterizeCPU(w *workloads.Workload) *CPUProfile {
	mix := &refMix{}
	sweep := cachesim.NewNaiveSweep()
	sharing := &refSharing{lines: make(map[uint64]uint64)}
	foot := &refFootprint{pages: make(map[uint64]struct{})}
	h := trace.NewHarness(workloads.Threads, perEvent(mix.Event), sweep, perEvent(sharing.Event), perEvent(foot.Event))
	w.RunDefault(h)

	alu, br, ld, st := mix.fractions()
	var sharedAcc, sharedStore float64
	if sharing.memRefs > 0 {
		sharedAcc = float64(sharing.accShared) / float64(sharing.memRefs)
	}
	if sharing.st > 0 {
		sharedStore = float64(sharing.stShared) / float64(sharing.st)
	}
	return &CPUProfile{
		Name:             w.Name,
		Suite:            w.Suite,
		ALU:              alu,
		Branch:           br,
		Load:             ld,
		Store:            st,
		MissRates:        sweep.MissRates(),
		SharedLineFrac:   sharing.sharedLineFraction(),
		SharedAccessFrac: sharedAcc,
		SharedStoreFrac:  sharedStore,
		MeanSharers:      sharing.meanSharers(),
		InstrBlocks:      h.TouchedInstrBlocks(),
		DataPages:        uint64(len(foot.pages)),
		MemRefs:          mix.load + mix.store,
		Instrs:           mix.total(),
	}
}

// TestCPUProfilesMatchSerialReference is the acceptance differential: the
// batched, single-pass, worker-pool pipeline must produce bit-identical
// CPUProfile values to the serial per-event reference for all 24
// workloads.
func TestCPUProfilesMatchSerialReference(t *testing.T) {
	ws := workloads.All()
	if len(ws) != 24 {
		t.Fatalf("expected 24 workloads, have %d", len(ws))
	}
	workers := runtime.GOMAXPROCS(0) * 2 // oversubscribe to shake scheduling
	if workers < 4 {
		workers = 4
	}
	got := CharacterizeCPUAllObs(ws, sizes.Default, workers, nil)
	for i, w := range ws {
		want := referenceCharacterizeCPU(w)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: profile diverges from serial reference:\n got %+v\nwant %+v", w.Name, got[i], want)
		}
	}
}

// TestCPUCharacterizeParallelDeterminism: any worker count yields the
// same profiles in the same order; run under -race this also proves the
// pool race-clean.
func TestCPUCharacterizeParallelDeterminism(t *testing.T) {
	ws := workloads.Rodinia()[:6]
	serial := CharacterizeCPUAllObs(ws, sizes.Default, 1, nil)
	for _, workers := range []int{2, 3, 8} {
		par := CharacterizeCPUAllObs(ws, sizes.Default, workers, nil)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("profiles differ between 1 and %d workers", workers)
		}
	}
}
