package gpusim

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
)

// runVecAddObs launches vecAdd on cfg with a registry attached and
// returns the GPU's stats plus the registry.
func runVecAddObs(t *testing.T, cfg Config, n int) (*Stats, *obs.Registry) {
	t.Helper()
	k := vecAddKernel()
	mem, _ := setupVecAdd(n)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := obs.New()
	g.SetObs(r)
	if err := g.Launch(k, isa.Launch{Grid: (n + 255) / 256, Block: 256}, mem); err != nil {
		t.Fatal(err)
	}
	return g.Stats, r
}

// checkObsInvariants asserts the telemetry's cycle accounting against
// the run's Stats: gpusim.cycles equals Stats.Cycles, and every SM's
// busy+idle equals its per-SM cycle total, which (single launch, one
// configuration) equals the run-wide count.
func checkObsInvariants(t *testing.T, cfg Config, st *Stats, r *obs.Registry) {
	t.Helper()
	c := r.Counters()
	if c["gpusim.cycles"] != st.Cycles {
		t.Fatalf("gpusim.cycles = %d, Stats.Cycles = %d", c["gpusim.cycles"], st.Cycles)
	}
	if c["gpusim.launches"] != uint64(st.Launches) {
		t.Fatalf("gpusim.launches = %d, Stats.Launches = %d", c["gpusim.launches"], st.Launches)
	}
	var busyTotal uint64
	for s := 0; s < cfg.NumSMs; s++ {
		label := strconv.Itoa(s)
		busy := c[obs.Name("gpusim.sm.busy_cycles", "sm", label)]
		idle := c[obs.Name("gpusim.sm.idle_cycles", "sm", label)]
		cyc := c[obs.Name("gpusim.sm.cycles", "sm", label)]
		if busy+idle != cyc {
			t.Fatalf("sm %d: busy %d + idle %d != cycles %d", s, busy, idle, cyc)
		}
		if cyc != st.Cycles {
			t.Fatalf("sm %d: cycles %d != Stats.Cycles %d", s, cyc, st.Cycles)
		}
		busyTotal += busy
	}
	if busyTotal == 0 {
		t.Fatal("no SM recorded a busy cycle")
	}
}

// TestObsSequential pins the telemetry invariants on the sequential
// event loop and that attaching a registry does not perturb Stats.
func TestObsSequential(t *testing.T) {
	cfg := Base8SM()
	st, r := runVecAddObs(t, cfg, 4096)
	checkObsInvariants(t, cfg, st, r)

	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := vecAddKernel()
	mem, _ := setupVecAdd(4096)
	if err := g.Launch(k, isa.Launch{Grid: 16, Block: 256}, mem); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, g.Stats) {
		t.Fatalf("registry perturbed Stats:\nwith obs: %+v\nwithout:  %+v", st, g.Stats)
	}
}

// TestObsParallelMatchesSequential runs the epoch engine with a
// registry attached (under -race in CI, this is what proves the per-SM
// slot ownership is race-free) and requires both the Stats and the
// telemetry cycle accounting to be identical to the sequential run's.
func TestObsParallelMatchesSequential(t *testing.T) {
	seqCfg := Base8SM()
	parCfg := Base8SM()
	parCfg.ShardWorkers = 3

	seqSt, seqR := runVecAddObs(t, seqCfg, 4096)
	parSt, parR := runVecAddObs(t, parCfg, 4096)
	checkObsInvariants(t, parCfg, parSt, parR)

	if !reflect.DeepEqual(*seqSt, *parSt) {
		t.Fatalf("parallel Stats diverge:\nseq: %+v\npar: %+v", *seqSt, *parSt)
	}
	seqC, parC := seqR.Counters(), parR.Counters()
	for _, name := range []string{"gpusim.cycles", "gpusim.launches"} {
		if seqC[name] != parC[name] {
			t.Fatalf("%s: sequential %d, parallel %d", name, seqC[name], parC[name])
		}
	}
	// The parallel run crossed its barrier once per epoch round; the
	// sequential one never did.
	if parC["gpusim.barrier.crossings"] == 0 {
		t.Fatal("parallel run recorded no barrier crossings")
	}
	if seqC["gpusim.barrier.crossings"] != 0 {
		t.Fatalf("sequential run recorded %d barrier crossings", seqC["gpusim.barrier.crossings"])
	}
}
