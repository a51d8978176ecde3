// Package micro is a microbenchmark suite for the GPU timing simulator:
// small synthetic kernels that isolate one mechanism each — issue
// throughput, SFU throughput, shared-memory banking, coalescing, DRAM
// bandwidth and latency, branch divergence — and report how the simulated
// machine responds. Architects use exactly such probes to validate a
// timing model before trusting benchmark numbers; the tests in this
// package pin the simulator's first-order behavior.
package micro

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/isa"
)

// Result is one microbenchmark measurement.
type Result struct {
	Name   string
	Metric string  // what Value measures
	Value  float64 // measured
	Note   string
}

// launch runs kernel k over the config and returns its stats.
func launch(cfg gpusim.Config, k *isa.Kernel, grid, block int, mem *isa.Memory) (*gpusim.Stats, error) {
	g, err := gpusim.New(cfg)
	if err != nil {
		return nil, err
	}
	if mem == nil {
		mem = isa.NewMemory()
	}
	if err := g.Launch(k, isa.Launch{Grid: grid, Block: block}, mem); err != nil {
		return nil, err
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return g.Stats, nil
}

// ALUPeak measures issue-limited integer throughput: a long chain of ALU
// instructions with enough warps to hide the pipeline latency. The
// theoretical ceiling is NumSMs * SIMDWidth instructions per cycle.
func ALUPeak(cfg gpusim.Config) (Result, error) {
	b := isa.NewBuilder()
	x, y := b.I(), b.I()
	b.MovI(x, 1)
	b.MovI(y, 3)
	for i := 0; i < 512; i++ {
		b.IAdd(x, x, y)
	}
	k := b.Build("micro_alu_peak")
	st, err := launch(cfg, k, cfg.NumSMs*8, 256, nil)
	if err != nil {
		return Result{}, err
	}
	peak := float64(cfg.NumSMs * 32)
	return Result{
		Name:   "alu-peak",
		Metric: "IPC / theoretical peak",
		Value:  st.IPC() / peak,
		Note:   fmt.Sprintf("IPC %.0f of %.0f", st.IPC(), peak),
	}, nil
}

// SFUThroughput measures the special-function unit penalty: the same
// chain built from square roots. The ratio to the ALU chain's cycle count
// exposes the 4x issue serialization of the SFU path.
func SFUThroughput(cfg gpusim.Config) (Result, error) {
	mk := func(sfu bool) *isa.Kernel {
		b := isa.NewBuilder()
		x := b.F()
		b.MovF(x, 2)
		for i := 0; i < 256; i++ {
			if sfu {
				b.Sqrt(x, x)
			} else {
				b.FAdd(x, x, x)
			}
		}
		return b.Build(fmt.Sprintf("micro_sfu_%v", sfu))
	}
	alu, err := launch(cfg, mk(false), cfg.NumSMs*8, 256, nil)
	if err != nil {
		return Result{}, err
	}
	sfu, err := launch(cfg, mk(true), cfg.NumSMs*8, 256, nil)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:   "sfu-throughput",
		Metric: "SFU/ALU cycle ratio",
		Value:  float64(sfu.Cycles) / float64(alu.Cycles),
		Note:   "expect ~4x (quarter-rate special-function pipe)",
	}, nil
}

// BankConflictLadder measures shared-memory slowdown at power-of-two
// strides; the returned value is the stride-16 slowdown over stride-1 on
// a 16-bank machine (expect ~16x).
func BankConflictLadder(cfg gpusim.Config) ([]Result, error) {
	mk := func(strideWords int64) *isa.Kernel {
		b := isa.NewBuilder()
		b.SetShared(256 * 16 * 4)
		tid, addr, v := b.I(), b.I(), b.I()
		b.Rd(tid, isa.SpecTid)
		b.IMulI(addr, tid, strideWords*4)
		b.IAndI(addr, addr, 256*16*4-4)
		b.MovI(v, 1)
		// Fully unrolled so the issue stream is pure shared loads; loop
		// overhead would otherwise dilute the conflict serialization.
		for i := 0; i < 128; i++ {
			b.Ld(v, isa.I32, isa.SpaceShared, addr, 0)
		}
		return b.Build(fmt.Sprintf("micro_bank_s%d", strideWords))
	}
	var out []Result
	var base uint64
	for _, stride := range []int64{1, 2, 4, 8, 16} {
		st, err := launch(cfg, mk(stride), cfg.NumSMs, 256, nil)
		if err != nil {
			return nil, err
		}
		if stride == 1 {
			base = st.Cycles
		}
		out = append(out, Result{
			Name:   fmt.Sprintf("bank-stride-%d", stride),
			Metric: "slowdown vs stride 1",
			Value:  float64(st.Cycles) / float64(base),
			Note:   fmt.Sprintf("%d conflict cycles", st.BankConflictCycles),
		})
	}
	return out, nil
}

// CoalescingProbe compares unit-stride and stride-16 global streams; the
// value is the transaction inflation (expect ~16x for 4-byte accesses in
// 64-byte segments).
func CoalescingProbe(cfg gpusim.Config) (Result, error) {
	mk := func(stride int64) (*isa.Kernel, *isa.Memory) {
		b := isa.NewBuilder()
		gid, tid, cta, ntid, addr := b.I(), b.I(), b.I(), b.I(), b.I()
		x := b.F()
		b.Rd(tid, isa.SpecTid)
		b.Rd(cta, isa.SpecCta)
		b.Rd(ntid, isa.SpecNTid)
		b.IMul(gid, cta, ntid)
		b.IAdd(gid, gid, tid)
		pa := b.I()
		b.LdParamI(pa, 0)
		b.IMulI(addr, gid, stride*4)
		b.IAdd(addr, addr, pa)
		b.LdF(x, isa.F32, isa.SpaceGlobal, addr, 0)
		k := b.Build(fmt.Sprintf("micro_coalesce_s%d", stride))
		mem := isa.NewMemory()
		a := mem.AllocGlobal(int(stride) * 256 * cfg.NumSMs * 4 * 4)
		mem.SetParamI(0, int64(a))
		return k, mem
	}
	k1, m1 := mk(1)
	unit, err := launch(cfg, k1, cfg.NumSMs*4, 256, m1)
	if err != nil {
		return Result{}, err
	}
	k16, m16 := mk(16)
	wide, err := launch(cfg, k16, cfg.NumSMs*4, 256, m16)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:   "coalescing",
		Metric: "txn inflation (stride 16 / stride 1)",
		Value:  float64(wide.DRAMTxns) / float64(unit.DRAMTxns),
		Note:   fmt.Sprintf("%d vs %d transactions", wide.DRAMTxns, unit.DRAMTxns),
	}, nil
}

// StreamBandwidth measures achieved DRAM bandwidth on a pure read stream
// as a fraction of the configured peak.
func StreamBandwidth(cfg gpusim.Config) (Result, error) {
	const perThread = 16
	b := isa.NewBuilder()
	gid, tid, cta, ntid, addr, it := b.I(), b.I(), b.I(), b.I(), b.I(), b.I()
	x, acc := b.F(), b.F()
	b.Rd(tid, isa.SpecTid)
	b.Rd(cta, isa.SpecCta)
	b.Rd(ntid, isa.SpecNTid)
	b.IMul(gid, cta, ntid)
	b.IAdd(gid, gid, tid)
	pa, pn := b.I(), b.I()
	b.LdParamI(pa, 0)
	b.LdParamI(pn, 1)
	b.MovF(acc, 0)
	b.ForI(it, 0, perThread, 1, func() {
		off := b.I()
		b.IMul(off, it, pn)
		b.IAdd(off, off, gid)
		b.ShlI(addr, off, 2)
		b.IAdd(addr, addr, pa)
		b.LdF(x, isa.F32, isa.SpaceGlobal, addr, 0)
		b.FAdd(acc, acc, x)
	})
	k := b.Build("micro_stream")
	threads := cfg.NumSMs * 8 * 256
	mem := isa.NewMemory()
	a := mem.AllocGlobal(threads * perThread * 4)
	mem.SetParamI(0, int64(a))
	mem.SetParamI(1, int64(threads))
	st, err := launch(cfg, k, cfg.NumSMs*8, 256, mem)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:   "stream-bandwidth",
		Metric: "achieved / peak DRAM bandwidth",
		Value:  st.BWUtilization(),
		Note:   fmt.Sprintf("%d bytes over %d cycles", st.DRAMBytes, st.Cycles),
	}, nil
}

// MemoryLatency estimates round-trip DRAM latency with a single-warp
// dependent pointer chase.
func MemoryLatency(cfg gpusim.Config) (Result, error) {
	const chain = 256
	b := isa.NewBuilder()
	tid, cur := b.I(), b.I()
	b.Rd(tid, isa.SpecTid)
	pa := b.I()
	b.LdParamI(pa, 0)
	b.Mov(cur, pa)
	it := b.I()
	b.ForI(it, 0, chain, 1, func() {
		b.Ld(cur, isa.I64, isa.SpaceGlobal, cur, 0)
	})
	k := b.Build("micro_latency")
	mem := isa.NewMemory()
	// Chain through scattered 64-bit pointers (absolute addresses).
	nodes := 4096
	base := mem.AllocGlobal(nodes * 8)
	for i := 0; i < nodes; i++ {
		next := (i*2654435761 + 97) % nodes
		mem.WriteI64(isa.SpaceGlobal, base+uint64(i*8), int64(base+uint64(next*8)))
	}
	mem.SetParamI(0, int64(base))
	st, err := launch(cfg, k, 1, 32, mem)
	if err != nil {
		return Result{}, err
	}
	// Subtract the loop-overhead instructions (~4 per iteration).
	perLoad := float64(st.Cycles) / chain
	return Result{
		Name:   "memory-latency",
		Metric: "cycles per dependent load",
		Value:  perLoad,
		Note:   fmt.Sprintf("configured DRAM pipe latency %d", cfg.DRAMLatency),
	}, nil
}

// DivergenceLadder measures IPC as a warp splits 1-, 2-, 4- ... 32-ways:
// each thread takes a lane-dependent path through a switch of equal-cost
// branches.
func DivergenceLadder(cfg gpusim.Config) ([]Result, error) {
	mk := func(ways int64) *isa.Kernel {
		b := isa.NewBuilder()
		tid, lane, acc := b.I(), b.I(), b.I()
		b.Rd(tid, isa.SpecTid)
		b.IAndI(lane, tid, ways-1) // path id in [0, ways)
		b.MovI(acc, 0)
		var emit func(lo, hi int64)
		emit = func(lo, hi int64) {
			if lo == hi {
				for i := 0; i < 64; i++ {
					b.IAddI(acc, acc, lo)
				}
				return
			}
			mid := (lo + hi) / 2
			p := b.P()
			b.SetpII(p, isa.CmpLE, lane, mid)
			b.If(p, func() { emit(lo, mid) }, func() { emit(mid+1, hi) })
		}
		emit(0, ways-1)
		return b.Build(fmt.Sprintf("micro_div_%d", ways))
	}
	var out []Result
	var base float64
	for _, ways := range []int64{1, 2, 4, 8, 16, 32} {
		st, err := launch(cfg, mk(ways), cfg.NumSMs*8, 256, nil)
		if err != nil {
			return nil, err
		}
		if ways == 1 {
			base = st.IPC()
		}
		out = append(out, Result{
			Name:   fmt.Sprintf("divergence-%dway", ways),
			Metric: "IPC fraction of convergent",
			Value:  st.IPC() / base,
			Note:   fmt.Sprintf("IPC %.0f", st.IPC()),
		})
	}
	return out, nil
}

// RunAll executes the whole suite on one configuration.
func RunAll(cfg gpusim.Config) ([]Result, error) {
	var out []Result
	add := func(r Result, err error) error {
		if err != nil {
			return err
		}
		out = append(out, r)
		return nil
	}
	if err := add(ALUPeak(cfg)); err != nil {
		return nil, err
	}
	if err := add(SFUThroughput(cfg)); err != nil {
		return nil, err
	}
	banks, err := BankConflictLadder(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, banks...)
	if err := add(CoalescingProbe(cfg)); err != nil {
		return nil, err
	}
	if err := add(StreamBandwidth(cfg)); err != nil {
		return nil, err
	}
	if err := add(MemoryLatency(cfg)); err != nil {
		return nil, err
	}
	div, err := DivergenceLadder(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, div...)
	return out, nil
}
