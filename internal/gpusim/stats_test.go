package gpusim

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/isa"
)

// runMixedWorkload runs a fixed workload on a fresh device of the given
// configuration and returns its Stats: two single-kernel launches, a
// barrier-heavy reduction, one concurrent two-kernel launch, and a
// vector add with four CTAs per SM, whose grid reaches every SM of a
// device where four fit, all on the same GPU so persistent cache and
// sharing-tracker state is exercised across launches.
func runMixedWorkload(t *testing.T, cfg Config) *Stats {
	t.Helper()
	const n = 4096
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	memA, _ := setupVecAdd(n)
	if err := g.Launch(vecAddKernel(), isa.Launch{Grid: n / 256, Block: 256}, memA); err != nil {
		t.Fatal(err)
	}

	memB := isa.NewMemory()
	hot := memB.AllocGlobal(16 * 8192 * 4)
	memB.SetParamI(0, int64(hot))
	if err := g.Launch(memBoundKernel(), isa.Launch{Grid: 32, Block: 256}, memB); err != nil {
		t.Fatal(err)
	}

	memR := isa.NewMemory()
	red := memR.AllocGlobal(16 * 8)
	memR.SetParamI(0, int64(red))
	if err := g.Launch(reduceKernel(256), isa.Launch{Grid: 16, Block: 256}, memR); err != nil {
		t.Fatal(err)
	}

	memC, _ := setupVecAdd(n)
	memD := isa.NewMemory()
	reg := memD.AllocGlobal(16 * 8192 * 4)
	memD.SetParamI(0, int64(reg))
	if err := g.LaunchConcurrent([]LaunchSpec{
		{Kernel: vecAddKernel(), Launch: isa.Launch{Grid: n / 256, Block: 256}, Mem: memC},
		{Kernel: reuseKernel(), Launch: isa.Launch{Grid: 8, Block: 256}, Mem: memD},
	}); err != nil {
		t.Fatal(err)
	}

	nw := cfg.NumSMs * 4 * 256
	memW, _ := setupVecAdd(nw)
	if err := g.Launch(vecAddKernel(), isa.Launch{Grid: nw / 256, Block: 256}, memW); err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	return g.Stats
}

// TestStatsCheck requires Check to pass on a live multi-kernel workload,
// on a configuration without data caches and on one with both, and to
// name each identity when a copy of the Stats breaks it.
func TestStatsCheck(t *testing.T) {
	for _, cfg := range []Config{Base8SM(), GTX480(L1Bias)} {
		st := runMixedWorkload(t, cfg)
		if err := st.Check(cfg); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	cfg := Base8SM()
	st := runMixedWorkload(t, cfg)
	if st.DivergentBranches == 0 || st.BankConflictCycles == 0 || len(st.PerKernel) < 3 {
		t.Fatalf("workload too tame to break every identity: %+v", st)
	}
	kernel := func(s *Stats) *Stats { return s.PerKernel["reduce"] }
	for _, c := range []struct {
		name   string
		mutate func(s *Stats)
		want   string
	}{
		{"occupancy", func(s *Stats) { s.Occupancy[3]++; kernel(s).Occupancy[3]++ }, "occupancy buckets sum to"},
		{"thread instructions below", func(s *Stats) { s.ThreadInstrs = s.WarpInstrs - 1 }, "thread instructions for"},
		{"thread instructions above", func(s *Stats) { s.ThreadInstrs = isa.WarpSize*s.WarpInstrs + 1 }, "thread instructions for"},
		{"memory operations", func(s *Stats) { s.MemOps[isa.SpaceGlobal] += s.ThreadInstrs }, "memory operations exceed"},
		{"DRAM bytes", func(s *Stats) { s.DRAMBytes++ }, "DRAM bytes for"},
		{"divergent branches", func(s *Stats) { s.DivergentBranches = s.BranchInstrs + 1 }, "divergent branches exceed"},
		{"inter-CTA lines", func(s *Stats) { s.InterCTALines = s.GlobalLines + 1 }, "inter-CTA lines exceed"},
		{"L1", func(s *Stats) { s.L1Hits++ }, "L1 accesses without an L1"},
		{"L2", func(s *Stats) { s.L2Misses++ }, "L2 accesses without an L2"},
		{"per-kernel warp instructions", func(s *Stats) { kernel(s).WarpInstrs++ }, "per-kernel warp instructions"},
		{"per-kernel thread instructions", func(s *Stats) { kernel(s).ThreadInstrs++ }, "per-kernel thread instructions"},
		{"per-kernel memory operations", func(s *Stats) { kernel(s).MemOps[isa.SpaceShared]++ }, "per-kernel memory operations"},
		{"per-kernel occupancy", func(s *Stats) { kernel(s).Occupancy[0]++ }, "per-kernel occupancy buckets"},
		{"per-kernel branches", func(s *Stats) { kernel(s).BranchInstrs++ }, "per-kernel branches"},
		{"per-kernel divergent branches", func(s *Stats) { kernel(s).DivergentBranches-- }, "per-kernel divergent branches"},
		{"per-kernel bank conflicts", func(s *Stats) { kernel(s).BankConflictCycles-- }, "per-kernel bank-conflict cycles"},
	} {
		var bad Stats
		if err := json.Unmarshal([]byte(statsJSON(t, st)), &bad); err != nil {
			t.Fatal(err)
		}
		c.mutate(&bad)
		if err := bad.Check(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s broken: Check returned %v, want %q", c.name, err, c.want)
		}
	}
}
