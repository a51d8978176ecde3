package workloads

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/sizes"
	"repro/internal/trace"
)

func TestRegistries(t *testing.T) {
	if got := len(Rodinia()); got != 12 {
		t.Fatalf("Rodinia() has %d workloads, want 12", got)
	}
	if got := len(Parsec()); got != 13 {
		t.Fatalf("Parsec() has %d workloads, want 13", got)
	}
	// StreamCluster is shared, so All() has 24 distinct workloads.
	if got := len(All()); got != 24 {
		t.Fatalf("All() has %d workloads, want 24", got)
	}
	seen := map[string]bool{}
	for _, w := range All() {
		if w.Name == "" || w.Domain == "" || w.Run == nil {
			t.Errorf("incomplete workload %+v", w)
		}
		for _, c := range sizes.Classes() {
			if len(w.Sizes[c]) == 0 {
				t.Errorf("%s: no size params for class %s", w.Name, c)
			}
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if got, ok := ByName(w.Name); !ok || got != w {
			t.Errorf("ByName(%s) failed", w.Name)
		}
	}
	if _, ok := ByName("unknown"); ok {
		t.Error("ByName accepted unknown workload")
	}
}

func TestLabels(t *testing.T) {
	w, _ := ByName("streamcluster")
	if w.Label() != "streamcluster(R,P)" {
		t.Fatalf("Label = %q", w.Label())
	}
	w, _ = ByName("srad")
	if w.Label() != "srad(R)" {
		t.Fatalf("Label = %q", w.Label())
	}
}

func TestChunkPartitioning(t *testing.T) {
	for _, n := range []int{1, 7, 8, 100, 65536} {
		covered := 0
		prevHi := 0
		for tid := 0; tid < Threads; tid++ {
			lo, hi := chunk(n, tid, Threads)
			if lo < prevHi {
				t.Fatalf("n=%d tid=%d: overlap (lo=%d prevHi=%d)", n, tid, lo, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != n {
			t.Fatalf("n=%d: covered %d items", n, covered)
		}
	}
}

// countingConsumer tallies events per kind and per thread.
type countingConsumer struct {
	mem, alu uint64
	tids     map[uint8]bool
}

func (c *countingConsumer) Events(batch []trace.Event) {
	for _, e := range batch {
		switch e.Kind {
		case trace.KindLoad, trace.KindStore:
			c.mem++
		case trace.KindALU:
			c.alu += uint64(e.Count)
		}
		c.tids[e.Tid] = true
	}
}

// TestEveryWorkloadProducesParallelWork runs every workload and checks it
// emits memory traffic from all threads.
func TestEveryWorkloadProducesParallelWork(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			c := &countingConsumer{tids: map[uint8]bool{}}
			h := trace.NewHarness(Threads, c)
			w.RunDefault(h)
			if c.mem == 0 || c.alu == 0 {
				t.Fatalf("no work traced: mem=%d alu=%d", c.mem, c.alu)
			}
			if len(c.tids) != Threads {
				t.Fatalf("only %d of %d threads produced events", len(c.tids), Threads)
			}
			if h.TouchedInstrBlocks() == 0 {
				t.Fatal("no code blocks touched")
			}
		})
	}
}

// TestWorkloadsDeterministic re-runs a sample of workloads and compares
// the event checksum.
func TestWorkloadsDeterministic(t *testing.T) {
	sample := []string{"bfs", "canneal", "mummergpu", "x264"}
	for _, name := range sample {
		w, _ := ByName(name)
		sum := func() uint64 {
			var s uint64
			h := trace.NewHarness(Threads, consumerFunc(func(e *trace.Event) {
				s = s*31 + e.Addr + uint64(e.Kind) + uint64(e.Count)
			}))
			w.RunDefault(h)
			return s
		}
		if a, b := sum(), sum(); a != b {
			t.Fatalf("%s nondeterministic: %x vs %x", name, a, b)
		}
	}
}

// consumerFunc is a consumer that calls f on each event in turn.
type consumerFunc func(e *trace.Event)

func (f consumerFunc) Events(batch []trace.Event) {
	for i := range batch {
		f(&batch[i])
	}
}

// TestEveryWorkloadRunsAtTestSize traces every workload at the small
// class: the size axis must keep every run body valid, and the test
// class must do strictly less memory work than medium.
func TestEveryWorkloadRunsAtTestSize(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			count := func(c sizes.Class) uint64 {
				cc := &countingConsumer{tids: map[uint8]bool{}}
				h := trace.NewHarness(Threads, cc)
				w.RunAt(h, c)
				if cc.mem == 0 {
					t.Fatalf("class %s traced no memory events", c)
				}
				return cc.mem
			}
			if small, med := count(sizes.Test), count(sizes.Medium); small >= med {
				t.Fatalf("test class (%d mem events) not smaller than medium (%d)", small, med)
			}
		})
	}
}

// TestDefaultClassMatchesMediumTrace pins the byte-identity guarantee on
// the CPU side: RunDefault and RunAt(medium) produce identical traces.
func TestDefaultClassMatchesMediumTrace(t *testing.T) {
	w, _ := ByName("srad")
	sum := func(run func(h *trace.Harness)) uint64 {
		var s uint64
		h := trace.NewHarness(Threads, consumerFunc(func(e *trace.Event) {
			s = s*31 + e.Addr + uint64(e.Kind) + uint64(e.Count)
		}))
		run(h)
		return s
	}
	a := sum(w.RunDefault)
	b := sum(func(h *trace.Harness) { w.RunAt(h, sizes.Medium) })
	if a != b {
		t.Fatalf("default trace %x differs from medium trace %x", a, b)
	}
}

// TestCharacteristicShapes locks in the qualitative orderings the paper's
// figures depend on.
func TestCharacteristicShapes(t *testing.T) {
	profile := func(name string) (*cachesim.Mix, *cachesim.Sweep, *cachesim.Sharing, *cachesim.DataFootprint, *trace.Harness) {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		mix := &cachesim.Mix{}
		sweep := cachesim.NewSweep()
		sh := cachesim.NewSharing()
		fp := cachesim.NewDataFootprint()
		h := trace.NewHarness(Threads, mix, sweep, sh, fp)
		w.RunDefault(h)
		return mix, sweep, sh, fp, h
	}
	miss4M := func(s *cachesim.Sweep) float64 {
		c, err := s.ByKB(4096)
		if err != nil {
			t.Fatal(err)
		}
		return c.MissRate()
	}

	_, mumSweep, _, mumFP, mumH := profile("mummergpu")
	_, bsSweep, bsShare, _, _ := profile("blackscholes")
	_, _, hwShare, hwFP, _ := profile("heartwall")
	_, _, cnShare, _, _ := profile("canneal")
	_, _, _, swFP, _ := profile("swaptions")
	_, _, _, _, vipsH := profile("vips")

	// Figure 10: MUMmer's miss rate is far above a streaming workload's.
	if miss4M(mumSweep) < 2*miss4M(bsSweep) {
		t.Errorf("mummergpu miss rate %.4f not well above blackscholes %.4f",
			miss4M(mumSweep), miss4M(bsSweep))
	}
	// Figure 9: heartwall and canneal share heavily; blackscholes not at all.
	if hwShare.SharedAccessFraction() < 0.5 {
		t.Errorf("heartwall shared-access fraction %.3f, want > 0.5", hwShare.SharedAccessFraction())
	}
	if cnShare.SharedLineFraction() < 0.9 {
		t.Errorf("canneal shared-line fraction %.3f, want > 0.9", cnShare.SharedLineFraction())
	}
	if bsShare.SharedAccessFraction() != 0 {
		t.Errorf("blackscholes shares data: %.3f", bsShare.SharedAccessFraction())
	}
	// Figure 11: vips (Parsec) has a much larger code footprint than the
	// Rodinia kernels; MUMmer is the Rodinia exception.
	if vipsH.TouchedInstrBlocks() < 10*mumH.TouchedInstrBlocks()/3 {
		t.Errorf("vips instruction footprint %d not well above mummergpu %d",
			vipsH.TouchedInstrBlocks(), mumH.TouchedInstrBlocks())
	}
	// Figure 12: swaptions' working set is tiny; MUMmer's and heartwall's
	// differ by orders of magnitude.
	if swFP.Pages() > 16 {
		t.Errorf("swaptions touches %d pages, want tiny", swFP.Pages())
	}
	if mumFP.Pages() < 50*hwFP.Pages() {
		t.Errorf("mummergpu pages %d not far above heartwall %d", mumFP.Pages(), hwFP.Pages())
	}
}
