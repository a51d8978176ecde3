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
	wait(t, g)
	return g.Stats, r
}

// checkObsInvariants asserts the telemetry's cycle accounting against
// the run's Stats: gpusim.cycles equals Stats.Cycles, and every SM's
// busy+idle equals its per-SM cycle total, which (one configuration)
// equals the run-wide count. The stall reasons partition each SM's
// cycles too: busy + port + skip + sched equals the SM's cycles, and the
// per-SM reasons sum to the gpusim.stall.* totals.
func checkObsInvariants(t *testing.T, cfg Config, st *Stats, r *obs.Registry) {
	t.Helper()
	c := r.Counters()
	if c["gpusim.cycles"] != st.Cycles {
		t.Fatalf("gpusim.cycles = %d, Stats.Cycles = %d", c["gpusim.cycles"], st.Cycles)
	}
	if c["gpusim.launches"] != uint64(st.Launches) {
		t.Fatalf("gpusim.launches = %d, Stats.Launches = %d", c["gpusim.launches"], st.Launches)
	}
	var busyTotal, portTotal, skipTotal, schedTotal uint64
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
		port := c[obs.Name("gpusim.sm.port_cycles", "sm", label)]
		skip := c[obs.Name("gpusim.sm.skip_cycles", "sm", label)]
		sched := c[obs.Name("gpusim.sm.sched_cycles", "sm", label)]
		if busy+port+skip+sched != cyc {
			t.Fatalf("sm %d: busy %d + port %d + skip %d + sched %d != cycles %d", s, busy, port, skip, sched, cyc)
		}
		busyTotal += busy
		portTotal += port
		skipTotal += skip
		schedTotal += sched
	}
	if busyTotal == 0 {
		t.Fatal("no SM recorded a busy cycle")
	}
	for _, tot := range []struct {
		name string
		sum  uint64
	}{
		{"gpusim.stall.port_cycles", portTotal},
		{"gpusim.stall.skip_cycles", skipTotal},
		{"gpusim.stall.sched_cycles", schedTotal},
	} {
		if c[tot.name] != tot.sum {
			t.Fatalf("%s = %d, per-SM sum %d", tot.name, c[tot.name], tot.sum)
		}
	}
}

// TestObsSequential pins the telemetry invariants on the event loop and
// that attaching a registry does not perturb Stats. A
// second device with one narrow DRAM channel ends the launch with
// stores still queued, so its final drain must be tallied too.
func TestObsSequential(t *testing.T) {
	cfg := Base8SM()
	st, r := runVecAddObs(t, cfg, 4096)
	checkObsInvariants(t, cfg, st, r)
	narrow := Base8SM()
	narrow.MemChannels, narrow.DRAMBusBytes = 1, 1
	nst, nr := runVecAddObs(t, narrow, 4096)
	checkObsInvariants(t, narrow, nst, nr)

	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := vecAddKernel()
	mem, _ := setupVecAdd(4096)
	if err := g.Launch(k, isa.Launch{Grid: 16, Block: 256}, mem); err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	if !reflect.DeepEqual(st, g.Stats) {
		t.Fatalf("registry perturbed Stats:\nwith obs: %+v\nwithout:  %+v", st, g.Stats)
	}
}
