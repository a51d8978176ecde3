package core

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/sizes"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestCharacterizeCPUProfileInvariants(t *testing.T) {
	w, ok := workloads.ByName("hotspot")
	if !ok {
		t.Fatal("hotspot workload missing")
	}
	p := CharacterizeCPU(w)
	if p.Name != "hotspot" || p.Suite != "R" {
		t.Fatalf("identity wrong: %s %s", p.Name, p.Suite)
	}
	if sum := p.ALU + p.Branch + p.Load + p.Store; math.Abs(sum-1) > 1e-9 {
		t.Fatalf("mix fractions sum to %g", sum)
	}
	if len(p.MissRates) != len(cachesim.DefaultSizesKB) {
		t.Fatalf("%d miss rates for %d sizes", len(p.MissRates), len(cachesim.DefaultSizesKB))
	}
	for i := 1; i < len(p.MissRates); i++ {
		if p.MissRates[i] > p.MissRates[i-1]+1e-9 {
			t.Fatalf("miss rates not monotone: %v", p.MissRates)
		}
	}
	if p.MemRefs == 0 || p.Instrs == 0 || p.DataPages == 0 || p.InstrBlocks == 0 {
		t.Fatalf("empty profile: %+v", p)
	}
	if p.MissRate4MB() != p.MissRates[5] {
		t.Fatalf("MissRate4MB = %g, want index 5 (%v)", p.MissRate4MB(), p.MissRates)
	}
}

func TestFeatureVectorShapes(t *testing.T) {
	w, _ := workloads.ByName("srad")
	p := CharacterizeCPU(w)
	if got := len(p.MixVector()); got != 4 {
		t.Errorf("MixVector has %d features", got)
	}
	if got := len(p.WorkingSetVector()); got != 8 {
		t.Errorf("WorkingSetVector has %d features", got)
	}
	if got := len(p.SharingVector()); got != 4 {
		t.Errorf("SharingVector has %d features", got)
	}
	want := 4 + 8 + 4 + 2
	if got := len(p.FullVector()); got != want {
		t.Errorf("FullVector has %d features, want %d", got, want)
	}
	if p.Label() != "srad(R)" {
		t.Errorf("Label = %q", p.Label())
	}
}

func TestCharacterizeCPUAllOrder(t *testing.T) {
	ws := workloads.Rodinia()[:3]
	ps := CharacterizeCPUAllObs(ws, sizes.Default, 0, nil)
	if len(ps) != 3 {
		t.Fatalf("got %d profiles", len(ps))
	}
	for i := range ps {
		if ps[i].Name != ws[i].Name {
			t.Fatalf("profile %d is %s, want %s", i, ps[i].Name, ws[i].Name)
		}
	}
}

// TestCharacterizeCPUAllPanicReachesCaller runs a pool of two workers
// over workloads one of which panics: the call must panic on the
// caller's goroutine with that value, and leave no worker running.
func TestCharacterizeCPUAllPanicReachesCaller(t *testing.T) {
	boom := errors.New("workload exploded")
	bad := &workloads.Workload{Name: "boom", Suite: "R", Run: func(*trace.Harness, []int) { panic(boom) }}
	ws := append([]*workloads.Workload{bad}, workloads.Rodinia()[:3]...)
	base := runtime.NumGoroutine()
	got := func() (v any) {
		defer func() { v = recover() }()
		CharacterizeCPUAllObs(ws, sizes.Test, 2, nil)
		return nil
	}()
	if got != boom {
		t.Fatalf("recovered %v, want the workload's panic", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCharacterizeGPUValidates(t *testing.T) {
	b, ok := kernels.ByAbbrev("LUD")
	if !ok {
		t.Fatal("LUD missing")
	}
	st, err := CharacterizeGPU(b, gpusim.Base8SM(), true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles == 0 || st.IPC() <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
}

func TestCharacterizeGPURejectsBadConfig(t *testing.T) {
	b, _ := kernels.ByAbbrev("LUD")
	bad := gpusim.Base()
	bad.NumSMs = 0
	if _, err := CharacterizeGPU(b, bad, false); err == nil {
		t.Fatal("invalid config accepted")
	}
}
