package gpusim

import (
	"encoding/json"
	"testing"

	"repro/internal/isa"
)

// vecAddKernel builds out[i] = a[i] + b[i] over n elements, streaming
// coalesced float32 loads/stores.
func vecAddKernel() *isa.Kernel {
	b := isa.NewBuilder()
	tid, cta, ntid, gid, n, addr := b.I(), b.I(), b.I(), b.I(), b.I(), b.I()
	pa, pb, po := b.I(), b.I(), b.I()
	x, y := b.F(), b.F()
	p := b.P()
	b.Rd(tid, isa.SpecTid)
	b.Rd(cta, isa.SpecCta)
	b.Rd(ntid, isa.SpecNTid)
	b.IMul(gid, cta, ntid)
	b.IAdd(gid, gid, tid)
	b.LdParamI(pa, 0)
	b.LdParamI(pb, 1)
	b.LdParamI(po, 2)
	b.LdParamI(n, 3)
	b.SetpI(p, isa.CmpLT, gid, n)
	b.If(p, func() {
		b.ShlI(addr, gid, 2)
		aa, ab, ao := b.I(), b.I(), b.I()
		b.IAdd(aa, addr, pa)
		b.IAdd(ab, addr, pb)
		b.IAdd(ao, addr, po)
		b.LdF(x, isa.F32, isa.SpaceGlobal, aa, 0)
		b.LdF(y, isa.F32, isa.SpaceGlobal, ab, 0)
		b.FAdd(x, x, y)
		b.StF(isa.F32, isa.SpaceGlobal, ao, 0, x)
	}, nil)
	return b.Build("vecadd")
}

func setupVecAdd(n int) (*isa.Memory, uint64) {
	mem := isa.NewMemory()
	a := mem.AllocGlobal(n * 4)
	bb := mem.AllocGlobal(n * 4)
	o := mem.AllocGlobal(n * 4)
	for i := 0; i < n; i++ {
		mem.WriteF32(isa.SpaceGlobal, a+uint64(i*4), float32(i))
		mem.WriteF32(isa.SpaceGlobal, bb+uint64(i*4), float32(2*i))
	}
	mem.SetParamI(0, int64(a))
	mem.SetParamI(1, int64(bb))
	mem.SetParamI(2, int64(o))
	mem.SetParamI(3, int64(n))
	return mem, o
}

// wait ends g's pending launch timings (GPU.Wait), so Stats and an
// attached capture are complete, and fails the test on their error.
func wait(t testing.TB, g *GPU) {
	t.Helper()
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

// statsJSON canonicalizes stats for byte-comparison: encoding/json sorts
// map keys, so equal stats marshal to equal bytes.
func statsJSON(t *testing.T, s *Stats) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestVecAddCorrectUnderTiming(t *testing.T) {
	const n = 4096
	k := vecAddKernel()
	mem, out := setupVecAdd(n)
	g, err := New(Base())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Launch(k, isa.Launch{Grid: (n + 255) / 256, Block: 256}, mem); err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	for i := 0; i < n; i++ {
		if got := mem.ReadF32(isa.SpaceGlobal, out+uint64(i*4)); got != float32(3*i) {
			t.Fatalf("out[%d] = %g, want %g", i, got, float32(3*i))
		}
	}
	if g.Stats.Cycles == 0 || g.Stats.ThreadInstrs == 0 {
		t.Fatal("no timing recorded")
	}
	if ipc := g.Stats.IPC(); ipc <= 0 || ipc > float64(32*g.cfg.NumSMs) {
		t.Fatalf("implausible IPC %.1f", ipc)
	}
}

func TestTimingMatchesFunctional(t *testing.T) {
	const n = 2048
	k := vecAddKernel()
	memT, outT := setupVecAdd(n)
	memF, outF := setupVecAdd(n)
	g, _ := New(Base8SM())
	if err := g.Launch(k, isa.Launch{Grid: n / 256, Block: 256}, memT); err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	var f isa.Functional
	if err := f.Launch(k, isa.Launch{Grid: n / 256, Block: 256}, memF); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a := memT.ReadF32(isa.SpaceGlobal, outT+uint64(i*4))
		b := memF.ReadF32(isa.SpaceGlobal, outF+uint64(i*4))
		if a != b {
			t.Fatalf("timing/functional divergence at %d: %g vs %g", i, a, b)
		}
	}
}

// stridedKernel loads a[stride*gid] — uncoalesced when stride > 1.
func stridedKernel(stride int64) *isa.Kernel {
	b := isa.NewBuilder()
	tid, cta, ntid, gid, pa, addr := b.I(), b.I(), b.I(), b.I(), b.I(), b.I()
	x := b.F()
	b.Rd(tid, isa.SpecTid)
	b.Rd(cta, isa.SpecCta)
	b.Rd(ntid, isa.SpecNTid)
	b.IMul(gid, cta, ntid)
	b.IAdd(gid, gid, tid)
	b.LdParamI(pa, 0)
	b.IMulI(addr, gid, 4*stride)
	b.IAdd(addr, addr, pa)
	b.LdF(x, isa.F32, isa.SpaceGlobal, addr, 0)
	b.FAddI(x, x, 1)
	b.StF(isa.F32, isa.SpaceGlobal, addr, 0, x)
	return b.Build("strided")
}

func TestCoalescingReducesTransactions(t *testing.T) {
	const n = 2048
	run := func(stride int64) *Stats {
		k := stridedKernel(stride)
		mem := isa.NewMemory()
		a := mem.AllocGlobal(int(stride) * n * 4)
		mem.SetParamI(0, int64(a))
		g, _ := New(Base8SM())
		if err := g.Launch(k, isa.Launch{Grid: n / 256, Block: 256}, mem); err != nil {
			t.Fatal(err)
		}
		wait(t, g)
		return g.Stats
	}
	unit := run(1)
	wide := run(16)
	if wide.DRAMTxns <= unit.DRAMTxns {
		t.Fatalf("stride-16 txns %d not above unit-stride %d", wide.DRAMTxns, unit.DRAMTxns)
	}
	if wide.Cycles <= unit.Cycles {
		t.Fatalf("stride-16 cycles %d not above unit-stride %d", wide.Cycles, unit.Cycles)
	}
}

// sharedConflictKernel makes every lane hit the same bank (stride = banks
// words) when conflict==true, or consecutive banks otherwise.
func sharedConflictKernel(conflict bool, banks int64) *isa.Kernel {
	b := isa.NewBuilder()
	b.SetShared(256 * 4 * int(banks)) // room for the worst-case stride
	tid, addr, v, it := b.I(), b.I(), b.I(), b.I()
	b.Rd(tid, isa.SpecTid)
	stride := int64(4)
	if conflict {
		stride = 4 * banks
	}
	b.IMulI(addr, tid, stride)
	b.MovI(v, 7)
	b.ForI(it, 0, 64, 1, func() {
		b.St(isa.I32, isa.SpaceShared, addr, 0, v)
		b.Ld(v, isa.I32, isa.SpaceShared, addr, 0)
	})
	return b.Build("sharedconflict")
}

func TestSharedBankConflicts(t *testing.T) {
	cfg := Base8SM()
	run := func(conflict, model bool) *Stats {
		c := cfg
		c.BankConflicts = model
		k := sharedConflictKernel(conflict, int64(c.SharedBanks))
		g, _ := New(c)
		if err := g.Launch(k, isa.Launch{Grid: 8, Block: 256}, isa.NewMemory()); err != nil {
			t.Fatal(err)
		}
		wait(t, g)
		return g.Stats
	}
	free := run(false, true)
	conf := run(true, true)
	off := run(true, false)
	if conf.BankConflictCycles == 0 {
		t.Fatal("conflicting pattern produced no conflict cycles")
	}
	if free.BankConflictCycles != 0 {
		t.Fatalf("conflict-free pattern produced %d conflict cycles", free.BankConflictCycles)
	}
	if conf.Cycles <= free.Cycles {
		t.Fatalf("conflicts did not slow execution: %d vs %d", conf.Cycles, free.Cycles)
	}
	if off.BankConflictCycles != 0 {
		t.Fatal("conflict modeling disabled but conflicts charged")
	}
	if off.Cycles >= conf.Cycles {
		t.Fatalf("disabling conflict model did not speed up: %d vs %d", off.Cycles, conf.Cycles)
	}
}

// memBoundKernel streams a large array with little compute.
func memBoundKernel() *isa.Kernel {
	b := isa.NewBuilder()
	tid, cta, ntid, gid, pa, addr, it := b.I(), b.I(), b.I(), b.I(), b.I(), b.I(), b.I()
	x, acc := b.F(), b.F()
	b.Rd(tid, isa.SpecTid)
	b.Rd(cta, isa.SpecCta)
	b.Rd(ntid, isa.SpecNTid)
	b.IMul(gid, cta, ntid)
	b.IAdd(gid, gid, tid)
	b.LdParamI(pa, 0)
	b.MovF(acc, 0)
	b.ForI(it, 0, 16, 1, func() {
		off := b.I()
		b.IMulI(off, it, 8192*4)
		b.ShlI(addr, gid, 2)
		b.IAdd(addr, addr, off)
		b.IAdd(addr, addr, pa)
		b.LdF(x, isa.F32, isa.SpaceGlobal, addr, 0)
		b.FAdd(acc, acc, x)
	})
	b.ShlI(addr, gid, 2)
	b.IAdd(addr, addr, pa)
	b.StF(isa.F32, isa.SpaceGlobal, addr, 0, acc)
	return b.Build("membound")
}

func TestMemoryChannelScaling(t *testing.T) {
	run := func(channels int) uint64 {
		cfg := Base8SM()
		cfg.MemChannels = channels
		k := memBoundKernel()
		mem := isa.NewMemory()
		a := mem.AllocGlobal(16 * 8192 * 4)
		mem.SetParamI(0, int64(a))
		g, _ := New(cfg)
		if err := g.Launch(k, isa.Launch{Grid: 32, Block: 256}, mem); err != nil {
			t.Fatal(err)
		}
		wait(t, g)
		return g.Stats.Cycles
	}
	c4 := run(4)
	c8 := run(8)
	if c8 >= c4 {
		t.Fatalf("8 channels (%d cycles) not faster than 4 (%d cycles) on memory-bound kernel", c8, c4)
	}
}

// reuseKernel makes every thread repeatedly read a small hot region.
func reuseKernel() *isa.Kernel {
	b := isa.NewBuilder()
	tid, cta, ntid, gid, pa, addr, it := b.I(), b.I(), b.I(), b.I(), b.I(), b.I(), b.I()
	x, acc := b.F(), b.F()
	b.Rd(tid, isa.SpecTid)
	b.Rd(cta, isa.SpecCta)
	b.Rd(ntid, isa.SpecNTid)
	b.IMul(gid, cta, ntid)
	b.IAdd(gid, gid, tid)
	b.LdParamI(pa, 0)
	b.MovF(acc, 0)
	b.ForI(it, 0, 16, 1, func() {
		b.IAndI(addr, gid, 255) // 1 kB hot region shared by everyone
		b.ShlI(addr, addr, 2)
		b.IAdd(addr, addr, pa)
		b.LdF(x, isa.F32, isa.SpaceGlobal, addr, 0)
		b.FAdd(acc, acc, x)
	})
	b.ShlI(addr, gid, 2)
	b.IAdd(addr, addr, pa)
	b.StF(isa.F32, isa.SpaceGlobal, addr, 0, acc)
	return b.Build("reuse")
}

func TestL1CacheHelpsReuse(t *testing.T) {
	// Same kernel, reuse-heavy: compare no-L1 vs Fermi L1.
	k := reuseKernel()
	run := func(cfg Config) (uint64, uint64) {
		mem := isa.NewMemory()
		a := mem.AllocGlobal(16 * 8192 * 4)
		mem.SetParamI(0, int64(a))
		g, _ := New(cfg)
		if err := g.Launch(k, isa.Launch{Grid: 8, Block: 256}, mem); err != nil {
			t.Fatal(err)
		}
		wait(t, g)
		return g.Stats.Cycles, g.Stats.L1Hits
	}
	noL1 := Base8SM()
	withL1 := Base8SM()
	withL1.L1CacheKB = 48
	withL1.L2CacheKB = 768
	_, hits0 := run(noL1)
	_, hits1 := run(withL1)
	if hits0 != 0 {
		t.Fatalf("L1 hits recorded with no L1: %d", hits0)
	}
	if hits1 == 0 {
		t.Fatal("no L1 hits with L1 enabled")
	}
}

func TestOccupancyHistogram(t *testing.T) {
	// Guard tid%32 < 8: every warp issues most instructions with 8 lanes.
	b := isa.NewBuilder()
	tid, lane, pa, addr := b.I(), b.I(), b.I(), b.I()
	p := b.P()
	b.Rd(tid, isa.SpecTid)
	b.IAndI(lane, tid, 31)
	b.SetpII(p, isa.CmpLT, lane, 8)
	b.If(p, func() {
		b.LdParamI(pa, 0)
		b.ShlI(addr, tid, 2)
		b.IAdd(addr, addr, pa)
		v := b.I()
		b.MovI(v, 1)
		b.ForI(v, 0, 32, 1, func() {
			b.St(isa.I32, isa.SpaceGlobal, addr, 0, v)
		})
	}, nil)
	k := b.Build("lowocc")

	mem := isa.NewMemory()
	a := mem.AllocGlobal(1024 * 4)
	mem.SetParamI(0, int64(a))
	g, _ := New(Base8SM())
	if err := g.Launch(k, isa.Launch{Grid: 4, Block: 256}, mem); err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	f := g.Stats.OccupancyFractions()
	if f[0] < 0.5 {
		t.Fatalf("expected mostly 1-8-lane warps, got %v", f)
	}
}

func TestMemOpBreakdown(t *testing.T) {
	b := isa.NewBuilder()
	b.SetShared(256)
	tid, addr, zero := b.I(), b.I(), b.I()
	c, x := b.F(), b.F()
	b.Rd(tid, isa.SpecTid)
	b.MovI(zero, 0)
	b.LdF(c, isa.F64, isa.SpaceConst, zero, 0) // const
	b.ShlI(addr, tid, 3)
	b.LdF(x, isa.F64, isa.SpaceTex, addr, 0) // tex
	b.FAdd(x, x, c)
	b.StF(isa.F64, isa.SpaceShared, addr, 0, x) // shared
	pa := b.I()
	b.LdParamI(pa, 0) // param
	b.IAdd(addr, addr, pa)
	b.StF(isa.F64, isa.SpaceGlobal, addr, 0, x) // global
	k := b.Build("mixed")

	mem := isa.NewMemory()
	out := mem.AllocGlobal(32 * 8)
	cst := mem.AllocConst(8)
	_ = mem.AllocTex(32 * 8)
	mem.WriteF64(isa.SpaceConst, cst, 1)
	mem.SetParamI(0, int64(out))
	g, _ := New(Base8SM())
	if err := g.Launch(k, isa.Launch{Grid: 1, Block: 32}, mem); err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	for _, sp := range []isa.Space{isa.SpaceConst, isa.SpaceTex, isa.SpaceShared, isa.SpaceGlobal, isa.SpaceParam} {
		if g.Stats.MemOps[sp] == 0 {
			t.Errorf("no %v ops recorded", sp)
		}
	}
	if g.Stats.MemOps[isa.SpaceGlobal] != 32 {
		t.Errorf("global ops = %d, want 32", g.Stats.MemOps[isa.SpaceGlobal])
	}
}

func TestCTAsPerSMLimits(t *testing.T) {
	g, _ := New(Base())
	// mk builds a kernel with exactly `regs` simultaneously live integer
	// registers: all defined up front, all consumed at the end.
	mk := func(regs, shared int) *isa.Kernel {
		b := isa.NewBuilder()
		rs := make([]isa.IReg, regs)
		for i := range rs {
			rs[i] = b.I()
			b.MovI(rs[i], int64(i))
		}
		acc := rs[0]
		for i := 1; i < regs; i++ {
			b.IAdd(acc, acc, rs[i])
		}
		b.SetShared(shared)
		k := b.Build("occ")
		if k.Regs() != regs {
			t.Fatalf("helper built %d live regs, want %d", k.Regs(), regs)
		}
		return k
	}
	// 8 regs, no shared, block 128: thread limit allows 8, CTA cap 8.
	if got := g.CTAsPerSM(mk(8, 0), 128); got != 8 {
		t.Errorf("CTAsPerSM = %d, want 8", got)
	}
	// Shared memory limit: 16 kB per CTA in a 32 kB SM -> 2.
	if got := g.CTAsPerSM(mk(8, 16*1024), 128); got != 2 {
		t.Errorf("CTAsPerSM (shared-bound) = %d, want 2", got)
	}
	// Register limit: 64 regs x 256 threads = 16384 -> exactly 1.
	if got := g.CTAsPerSM(mk(64, 0), 256); got != 1 {
		t.Errorf("CTAsPerSM (reg-bound) = %d, want 1", got)
	}
	// Thread limit: 1024/512 = 2.
	if got := g.CTAsPerSM(mk(4, 0), 512); got != 2 {
		t.Errorf("CTAsPerSM (thread-bound) = %d, want 2", got)
	}
}

func TestOversizedKernelRejected(t *testing.T) {
	b := isa.NewBuilder()
	b.SetShared(128 * 1024) // exceeds any SM
	k := b.Build("huge")
	g, _ := New(Base())
	if err := g.Launch(k, isa.Launch{Grid: 1, Block: 32}, isa.NewMemory()); err == nil {
		t.Fatal("oversized kernel accepted")
	}
}

// reduceKernel builds a shared-memory tree reduction over one block,
// writing each CTA's total to out[cta].
func reduceKernel(block int) *isa.Kernel {
	b := isa.NewBuilder()
	b.SetShared(block * 8)
	tid, saddr, base, v, stride, oaddr := b.I(), b.I(), b.I(), b.I(), b.I(), b.I()
	p := b.P()
	b.Rd(tid, isa.SpecTid)
	b.LdParamI(base, 0)
	b.ShlI(saddr, tid, 3)
	b.IAddI(v, tid, 1)
	b.St(isa.I64, isa.SpaceShared, saddr, 0, v)
	b.Bar()
	b.MovI(stride, int64(block/2))
	b.While(func() isa.PReg {
		b.SetpII(p, isa.CmpGT, stride, 0)
		return p
	}, func() {
		pin := b.P()
		b.SetpI(pin, isa.CmpLT, tid, stride)
		b.If(pin, func() {
			other, a, c := b.I(), b.I(), b.I()
			b.IAdd(other, tid, stride)
			b.ShlI(oaddr, other, 3)
			b.Ld(a, isa.I64, isa.SpaceShared, saddr, 0)
			b.Ld(c, isa.I64, isa.SpaceShared, oaddr, 0)
			b.IAdd(a, a, c)
			b.St(isa.I64, isa.SpaceShared, saddr, 0, a)
		}, nil)
		b.Bar()
		b.ShrI(stride, stride, 1)
	})
	pz := b.P()
	b.SetpII(pz, isa.CmpEQ, tid, 0)
	b.If(pz, func() {
		r, ca := b.I(), b.I()
		b.Ld(r, isa.I64, isa.SpaceShared, saddr, 0)
		b.Rd(ca, isa.SpecCta)
		b.ShlI(ca, ca, 3)
		b.IAdd(ca, ca, base)
		b.St(isa.I64, isa.SpaceGlobal, ca, 0, r)
	}, nil)
	return b.Build("reduce")
}

func TestBarrierReductionUnderTiming(t *testing.T) {
	const block = 256
	k := reduceKernel(block)

	mem := isa.NewMemory()
	out := mem.AllocGlobal(16 * 8)
	mem.SetParamI(0, int64(out))
	g, _ := New(Base8SM())
	if err := g.Launch(k, isa.Launch{Grid: 16, Block: block}, mem); err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	want := int64(block * (block + 1) / 2)
	for i := 0; i < 16; i++ {
		if got := mem.ReadI64(isa.SpaceGlobal, out+uint64(i*8)); got != want {
			t.Fatalf("cta %d reduction = %d, want %d", i, got, want)
		}
	}
	if g.Stats.DivergentBranches == 0 {
		t.Error("reduction produced no divergent branches")
	}
}

func TestStatsMerge(t *testing.T) {
	a := NewStats("a")
	a.Cycles = 10
	a.ThreadInstrs = 100
	a.MemOps[isa.SpaceGlobal] = 5
	a.Occupancy[3] = 7
	b := NewStats("b")
	b.Cycles = 5
	b.ThreadInstrs = 50
	b.MemOps[isa.SpaceGlobal] = 2
	b.MemOps[isa.SpaceShared] = 3
	b.Occupancy[3] = 1
	a.Merge(b)
	if a.Cycles != 15 || a.ThreadInstrs != 150 {
		t.Fatalf("merge totals wrong: %+v", a)
	}
	if a.MemOps[isa.SpaceGlobal] != 7 || a.MemOps[isa.SpaceShared] != 3 {
		t.Fatalf("merge mem ops wrong: %v", a.MemOps)
	}
	if a.Occupancy[3] != 8 {
		t.Fatalf("merge occupancy wrong: %v", a.Occupancy)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := Base()
	bad.SIMDWidth = 24
	if err := bad.Validate(); err == nil {
		t.Error("SIMDWidth 24 accepted")
	}
	bad = Base()
	bad.NumSMs = 0
	if err := bad.Validate(); err == nil {
		t.Error("NumSMs 0 accepted")
	}
	bad = Base()
	bad.LineSize = 48
	if err := bad.Validate(); err == nil {
		t.Error("LineSize 48 accepted")
	}
	for _, cfg := range []Config{Base(), Base8SM(), GTX280(), GTX480(SharedBias), GTX480(L1Bias)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", cfg.Name, err)
		}
	}
}

// TestConfigBounds rejects values past each documented bound, including
// the ones that would allocate without bound (DRAM channels, caches) or
// index past the bank model's scratch, and a zero clock.
func TestConfigBounds(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"channels 1e9":    func(c *Config) { c.MemChannels = 1_000_000_000 },
		"64 banks":        func(c *Config) { c.SharedBanks = 64 },
		"zero core clock": func(c *Config) { c.CoreClockMHz = 0 },
		"2048 SMs":        func(c *Config) { c.NumSMs = 2048 },
		"1 GiB L2":        func(c *Config) { c.L2CacheKB = 1 << 20 },
		"cache lines":     func(c *Config) { c.NumSMs, c.L1CacheKB = 1024, 4096 },
		"negative L1":     func(c *Config) { c.L1CacheKB = -1 },
		"SIMD width 0":    func(c *Config) { c.SIMDWidth = 0 },
	} {
		c := Base()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
		if _, err := New(c); err == nil {
			t.Errorf("%s: New accepted it", name)
		}
	}
}

// TestShardWorkersValidation and TestEpochCyclesValidation keep the
// bounds on the two ignored fields, which stay bounded until they go.
func TestShardWorkersValidation(t *testing.T) {
	cfg := Base()
	cfg.ShardWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative ShardWorkers accepted")
	}
}

func TestEpochCyclesValidation(t *testing.T) {
	cfg := Base()
	cfg.EpochCycles = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative EpochCycles accepted")
	}
}

func TestCacheLRU(t *testing.T) {
	c := newCache(1, 2, 64) // 1 kB, 2-way, 64 B lines -> 8 sets
	if c.access(0) {
		t.Fatal("cold access hit")
	}
	if !c.access(0) {
		t.Fatal("warm access missed")
	}
	// Fill the set containing address 0 (same set every 8 lines = 512 B).
	c.access(512)
	c.access(1024) // evicts LRU (addr 0 was touched most recently? no: 0,512,1024)
	// After touching 0, 512, 1024 in set 0: 0 evicted? LRU of {0,512} is 0
	// only if 512 touched later. Access order: 0,0,512,1024 -> evict 0.
	if c.access(0) {
		t.Fatal("expected 0 to be evicted")
	}
	if !c.access(1024) {
		t.Fatal("1024 should be resident")
	}
}

func TestFermiConfigs(t *testing.T) {
	s := GTX480(SharedBias)
	l := GTX480(L1Bias)
	if s.SharedMemory != 48*1024 || s.L1CacheKB != 16 {
		t.Fatalf("shared-bias split wrong: %d/%d", s.SharedMemory, s.L1CacheKB)
	}
	if l.SharedMemory != 16*1024 || l.L1CacheKB != 48 {
		t.Fatalf("L1-bias split wrong: %d/%d", l.SharedMemory, l.L1CacheKB)
	}
	if s.L2CacheKB != 768 || l.L2CacheKB != 768 {
		t.Fatal("Fermi must have a 768 kB L2")
	}
	if GTX280().L1CacheKB != 0 || GTX280().L2CacheKB != 0 {
		t.Fatal("GTX280 must not have L1/L2")
	}
}

func TestGridLargerThanDevice(t *testing.T) {
	// More CTAs than can be resident at once must still complete.
	k := vecAddKernel()
	const n = 64 * 1024
	mem, out := setupVecAdd(n)
	cfg := Base8SM()
	cfg.MaxCTAs = 2
	g, _ := New(cfg)
	if err := g.Launch(k, isa.Launch{Grid: n / 64, Block: 64}, mem); err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	for _, i := range []int{0, n / 2, n - 1} {
		if got := mem.ReadF32(isa.SpaceGlobal, out+uint64(i*4)); got != float32(3*i) {
			t.Fatalf("out[%d] = %g, want %g", i, got, float32(3*i))
		}
	}
	if g.Stats.CTAs != n/64 {
		t.Fatalf("CTAs = %d, want %d", g.Stats.CTAs, n/64)
	}
}

func TestPerKernelStats(t *testing.T) {
	// Two different kernels on one GPU: totals must equal the sum of the
	// per-kernel sub-stats.
	g, _ := New(Base8SM())
	const n = 2048
	k1 := vecAddKernel()
	mem, _ := setupVecAdd(n)
	if err := g.Launch(k1, isa.Launch{Grid: n / 256, Block: 256}, mem); err != nil {
		t.Fatal(err)
	}
	k2 := reuseKernel()
	mem2 := isa.NewMemory()
	a := mem2.AllocGlobal(16 * 8192 * 4)
	mem2.SetParamI(0, int64(a))
	if err := g.Launch(k2, isa.Launch{Grid: 8, Block: 256}, mem2); err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	if len(g.Stats.PerKernel) != 2 {
		t.Fatalf("PerKernel has %d entries", len(g.Stats.PerKernel))
	}
	var sumInstr, sumCycles uint64
	for name, pk := range g.Stats.PerKernel {
		if pk.ThreadInstrs == 0 || pk.Cycles == 0 || pk.Launches != 1 {
			t.Fatalf("kernel %s sub-stats degenerate: %+v", name, pk)
		}
		sumInstr += pk.ThreadInstrs
		sumCycles += pk.Cycles
	}
	if sumInstr != g.Stats.ThreadInstrs {
		t.Fatalf("per-kernel instrs %d != total %d", sumInstr, g.Stats.ThreadInstrs)
	}
	if sumCycles != g.Stats.Cycles {
		t.Fatalf("per-kernel cycles %d != total %d", sumCycles, g.Stats.Cycles)
	}
}

func TestConcurrentKernelsCorrect(t *testing.T) {
	// Two kernels launched simultaneously must both produce the same
	// results as serial execution.
	const n = 2048
	k1 := vecAddKernel()
	mem1, out1 := setupVecAdd(n)
	k2 := stridedKernel(1)
	mem2 := isa.NewMemory()
	a2 := mem2.AllocGlobal(n * 4)
	for i := 0; i < n; i++ {
		mem2.WriteF32(isa.SpaceGlobal, a2+uint64(i*4), float32(i))
	}
	mem2.SetParamI(0, int64(a2))

	g, _ := New(Base8SM())
	err := g.LaunchConcurrent([]LaunchSpec{
		{Kernel: k1, Launch: isa.Launch{Grid: n / 256, Block: 256}, Mem: mem1},
		{Kernel: k2, Launch: isa.Launch{Grid: n / 256, Block: 256}, Mem: mem2},
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	for i := 0; i < n; i++ {
		if got := mem1.ReadF32(isa.SpaceGlobal, out1+uint64(i*4)); got != float32(3*i) {
			t.Fatalf("vecadd out[%d] = %g, want %g", i, got, float32(3*i))
		}
		if got := mem2.ReadF32(isa.SpaceGlobal, a2+uint64(i*4)); got != float32(i)+1 {
			t.Fatalf("strided out[%d] = %g, want %g", i, got, float32(i)+1)
		}
	}
	if len(g.Stats.PerKernel) != 2 {
		t.Fatalf("PerKernel entries = %d", len(g.Stats.PerKernel))
	}
	if g.Stats.Launches != 2 {
		t.Fatalf("Launches = %d", g.Stats.Launches)
	}
}

func TestConcurrentComplementaryKernelsOverlap(t *testing.T) {
	// A latency-bound kernel (memory stream) co-scheduled with a
	// compute-bound kernel should finish in less time than running them
	// back to back: the makespan must be below the serial sum.
	mkCompute := func() *isa.Kernel {
		b := isa.NewBuilder()
		x, y := b.I(), b.I()
		b.MovI(x, 1)
		b.MovI(y, 3)
		for i := 0; i < 400; i++ {
			b.IAdd(x, x, y)
		}
		return b.Build("conc_compute")
	}
	memFor := func() *isa.Memory {
		mem := isa.NewMemory()
		a := mem.AllocGlobal(16 * 8192 * 4)
		mem.SetParamI(0, int64(a))
		return mem
	}
	launchMem := isa.Launch{Grid: 16, Block: 256}
	launchCmp := isa.Launch{Grid: 16, Block: 256}

	serial := func() uint64 {
		g, _ := New(Base8SM())
		if err := g.Launch(memBoundKernel(), launchMem, memFor()); err != nil {
			t.Fatal(err)
		}
		if err := g.Launch(mkCompute(), launchCmp, isa.NewMemory()); err != nil {
			t.Fatal(err)
		}
		wait(t, g)
		return g.Stats.Cycles
	}()
	concurrent := func() uint64 {
		g, _ := New(Base8SM())
		err := g.LaunchConcurrent([]LaunchSpec{
			{Kernel: memBoundKernel(), Launch: launchMem, Mem: memFor()},
			{Kernel: mkCompute(), Launch: launchCmp, Mem: isa.NewMemory()},
		})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, g)
		return g.Stats.Cycles
	}()
	if concurrent >= serial {
		t.Fatalf("concurrent makespan %d not below serial %d", concurrent, serial)
	}
}

func TestConcurrentResourceAccounting(t *testing.T) {
	// A shared-memory-hungry kernel and a thread-hungry kernel must both
	// be admitted to the device without oversubscribing any SM budget
	// (indirectly validated: the launch completes and is correct).
	mkShared := func() *isa.Kernel {
		b := isa.NewBuilder()
		b.SetShared(16 * 1024)
		tid, v := b.I(), b.I()
		b.Rd(tid, isa.SpecTid)
		sa := b.I()
		b.ShlI(sa, tid, 2)
		b.MovI(v, 7)
		b.St(isa.I32, isa.SpaceShared, sa, 0, v)
		return b.Build("conc_shared")
	}
	g, _ := New(Base8SM())
	err := g.LaunchConcurrent([]LaunchSpec{
		{Kernel: mkShared(), Launch: isa.Launch{Grid: 32, Block: 128}, Mem: isa.NewMemory()},
		{Kernel: mkShared(), Launch: isa.Launch{Grid: 32, Block: 128}, Mem: isa.NewMemory()},
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	if g.Stats.CTAs != 64 {
		t.Fatalf("CTAs = %d, want 64", g.Stats.CTAs)
	}
}

func TestLaunchConcurrentValidation(t *testing.T) {
	g, _ := New(Base8SM())
	if err := g.LaunchConcurrent(nil); err == nil {
		t.Fatal("empty spec list accepted")
	}
	big := isa.NewBuilder()
	big.SetShared(128 * 1024)
	if err := g.LaunchConcurrent([]LaunchSpec{
		{Kernel: big.Build("huge"), Launch: isa.Launch{Grid: 1, Block: 32}, Mem: isa.NewMemory()},
	}); err == nil {
		t.Fatal("oversized kernel accepted")
	}
}

func TestSIMDWidthScalesIssueCost(t *testing.T) {
	// A pure ALU kernel on an 8-wide pipeline needs ~4x the cycles of a
	// 32-wide one (a 32-thread warp occupies 4 issue slots).
	mk := func() *isa.Kernel {
		b := isa.NewBuilder()
		x, y := b.I(), b.I()
		b.MovI(x, 1)
		b.MovI(y, 2)
		for i := 0; i < 256; i++ {
			b.IAdd(x, x, y)
		}
		return b.Build("simdwidth")
	}
	run := func(width int) uint64 {
		cfg := Base8SM()
		cfg.SIMDWidth = width
		g, _ := New(cfg)
		if err := g.Launch(mk(), isa.Launch{Grid: 64, Block: 256}, isa.NewMemory()); err != nil {
			t.Fatal(err)
		}
		wait(t, g)
		return g.Stats.Cycles
	}
	wide := run(32)
	narrow := run(8)
	ratio := float64(narrow) / float64(wide)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("8-wide/32-wide cycle ratio %.2f, want ~4", ratio)
	}
}

func TestInterCTASharingStats(t *testing.T) {
	// Every CTA reads the same global line: the line must be counted as
	// inter-CTA shared.
	b := isa.NewBuilder()
	base := b.I()
	v := b.F()
	b.LdParamI(base, 0)
	b.LdF(v, isa.F32, isa.SpaceGlobal, base, 0)
	k := b.Build("sharedline")
	mem := isa.NewMemory()
	a := mem.AllocGlobal(64)
	mem.SetParamI(0, int64(a))
	g, _ := New(Base8SM())
	if err := g.Launch(k, isa.Launch{Grid: 8, Block: 32}, mem); err != nil {
		t.Fatal(err)
	}
	wait(t, g)
	if g.Stats.GlobalLines != 1 {
		t.Fatalf("GlobalLines = %d, want 1", g.Stats.GlobalLines)
	}
	if g.Stats.InterCTALines != 1 {
		t.Fatalf("InterCTALines = %d, want 1", g.Stats.InterCTALines)
	}
	if got := g.Stats.InterCTASharedLineFraction(); got != 1 {
		t.Fatalf("shared-line fraction %g, want 1", got)
	}
	// 8 CTA accesses, 7 of them to an already-shared line.
	if got := g.Stats.InterCTASharedAccessFraction(); got != 7.0/8 {
		t.Fatalf("shared-access fraction %g, want 7/8", got)
	}
}
