package gpusim

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Stats accumulates characterization metrics across kernel launches on one
// GPU instance. All counters are totals; derived rates are methods.
type Stats struct {
	Config string

	Cycles       uint64
	WarpInstrs   uint64
	ThreadInstrs uint64
	Launches     int
	CTAs         int

	// MemOps counts thread-level memory operations per space (Figure 2),
	// indexed by isa.Space. A dense array rather than a map: the timing
	// loop increments it once per memory instruction, and array indexing
	// keeps that charge allocation- and hash-free (and iteration order
	// deterministic).
	MemOps [isa.NumSpaces]uint64

	// Occupancy buckets issued warp instructions by active thread count:
	// 1-8, 9-16, 17-24, 25-32 (Figure 3).
	Occupancy [4]uint64

	DRAMBytes uint64
	DRAMTxns  uint64
	// PeakBytesPerCycle is the configuration's aggregate DRAM throughput,
	// recorded so BWUtilization is self-contained.
	PeakBytesPerCycle float64

	L1Hits, L1Misses       uint64
	L2Hits, L2Misses       uint64
	ConstHits, ConstMisses uint64
	TexHits, TexMisses     uint64

	BankConflictCycles uint64
	BranchInstrs       uint64
	DivergentBranches  uint64

	// Inter-CTA data sharing over global memory (a paper future-work
	// item: "data sharing among threads"): how many distinct global
	// lines were touched, how many by more than one CTA, and how many
	// accesses hit such shared lines.
	GlobalLines        uint64
	InterCTALines      uint64
	InterCTAAccesses   uint64
	GlobalLineAccesses uint64

	// PerKernel breaks the counters down by kernel name (nil on the
	// per-kernel sub-stats themselves). GPGPU-Sim reports per-kernel
	// statistics the same way.
	PerKernel map[string]*Stats
}

// Kernel returns the sub-stats for a kernel name, creating them on first
// use.
func (s *Stats) Kernel(name string) *Stats {
	if s.PerKernel == nil {
		s.PerKernel = make(map[string]*Stats)
	}
	k, ok := s.PerKernel[name]
	if !ok {
		k = NewStats(s.Config)
		s.PerKernel[name] = k
	}
	return k
}

// NewStats returns zeroed stats for the named configuration.
func NewStats(config string) *Stats {
	return &Stats{Config: config}
}

// IPC is thread instructions committed per cycle, GPGPU-Sim's definition.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ThreadInstrs) / float64(s.Cycles)
}

// BWUtilization is the fraction of peak DRAM bandwidth consumed.
func (s *Stats) BWUtilization() float64 {
	if s.Cycles == 0 || s.PeakBytesPerCycle == 0 {
		return 0
	}
	return float64(s.DRAMBytes) / (float64(s.Cycles) * s.PeakBytesPerCycle)
}

// MemOpsTotal is the total thread-level memory operation count.
func (s *Stats) MemOpsTotal() uint64 {
	var t uint64
	for _, v := range s.MemOps {
		t += v
	}
	return t
}

// MemMix returns the fraction of memory operations hitting each space,
// visiting spaces in ascending index order so callers that render the mix
// see a deterministic construction (only spaces with operations appear,
// matching the map-keyed counter this replaced).
func (s *Stats) MemMix() map[isa.Space]float64 {
	mix := make(map[isa.Space]float64, len(s.MemOps))
	total := s.MemOpsTotal()
	if total == 0 {
		return mix
	}
	for sp, v := range s.MemOps {
		if v == 0 {
			continue
		}
		mix[isa.Space(sp)] = float64(v) / float64(total)
	}
	return mix
}

// OccupancyFractions returns the Figure 3 histogram normalized to 1.
func (s *Stats) OccupancyFractions() [4]float64 {
	var out [4]float64
	var total uint64
	for _, v := range s.Occupancy {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range s.Occupancy {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// LowOccupancyFraction is the fraction of issued warps with at most
// 8 active threads (the paper highlights MUMmer's >60 % of warps with
// fewer than 5 active threads).
func (s *Stats) LowOccupancyFraction() float64 {
	f := s.OccupancyFractions()
	return f[0]
}

// DivergentBranchFraction is the fraction of branches that split a warp.
func (s *Stats) DivergentBranchFraction() float64 {
	if s.BranchInstrs == 0 {
		return 0
	}
	return float64(s.DivergentBranches) / float64(s.BranchInstrs)
}

// InterCTASharedLineFraction is the fraction of touched global lines that
// more than one CTA accessed.
func (s *Stats) InterCTASharedLineFraction() float64 {
	if s.GlobalLines == 0 {
		return 0
	}
	return float64(s.InterCTALines) / float64(s.GlobalLines)
}

// InterCTASharedAccessFraction is the fraction of global line accesses
// that hit a line already touched by a different CTA.
func (s *Stats) InterCTASharedAccessFraction() float64 {
	if s.GlobalLineAccesses == 0 {
		return 0
	}
	return float64(s.InterCTAAccesses) / float64(s.GlobalLineAccesses)
}

// Merge adds other's counters into s (used to aggregate per-launch stats).
func (s *Stats) Merge(other *Stats) {
	s.Cycles += other.Cycles
	s.WarpInstrs += other.WarpInstrs
	s.ThreadInstrs += other.ThreadInstrs
	s.Launches += other.Launches
	s.CTAs += other.CTAs
	for sp, v := range other.MemOps {
		s.MemOps[sp] += v
	}
	for i := range s.Occupancy {
		s.Occupancy[i] += other.Occupancy[i]
	}
	s.DRAMBytes += other.DRAMBytes
	s.DRAMTxns += other.DRAMTxns
	if other.PeakBytesPerCycle != 0 {
		s.PeakBytesPerCycle = other.PeakBytesPerCycle
	}
	s.L1Hits += other.L1Hits
	s.L1Misses += other.L1Misses
	s.L2Hits += other.L2Hits
	s.L2Misses += other.L2Misses
	s.ConstHits += other.ConstHits
	s.ConstMisses += other.ConstMisses
	s.TexHits += other.TexHits
	s.TexMisses += other.TexMisses
	s.BankConflictCycles += other.BankConflictCycles
	s.BranchInstrs += other.BranchInstrs
	s.DivergentBranches += other.DivergentBranches
	s.GlobalLines += other.GlobalLines
	s.InterCTALines += other.InterCTALines
	s.InterCTAAccesses += other.InterCTAAccesses
	s.GlobalLineAccesses += other.GlobalLineAccesses
}

// Check returns an error naming every identity s breaks, for Stats the
// timing model accumulated on a GPU built for cfg. The figures rest on
// them, and no differential between two paths through shared code can
// catch a bug in the shared part that breaks them:
//
//   - the occupancy buckets (Figure 3) sum to WarpInstrs;
//   - WarpInstrs ≤ ThreadInstrs ≤ isa.WarpSize × WarpInstrs;
//   - the memory operations (Figure 2) are at most ThreadInstrs;
//   - DRAMBytes = DRAMTxns × cfg.LineSize;
//   - DivergentBranches ≤ BranchInstrs and InterCTALines ≤ GlobalLines;
//   - no L1 or L2 accesses when cfg has no such cache;
//   - the per-kernel instruction, memory-operation, occupancy, branch and
//     bank-conflict counts sum to the totals.
func (s *Stats) Check(cfg Config) error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("gpusim: stats of %s: "+format, append([]any{s.Config}, args...)...))
	}
	var occ uint64
	for _, v := range s.Occupancy {
		occ += v
	}
	if occ != s.WarpInstrs {
		fail("occupancy buckets sum to %d, warp instructions %d", occ, s.WarpInstrs)
	}
	if s.ThreadInstrs < s.WarpInstrs || s.ThreadInstrs > isa.WarpSize*s.WarpInstrs {
		fail("%d thread instructions for %d warp instructions", s.ThreadInstrs, s.WarpInstrs)
	}
	if m := s.MemOpsTotal(); m > s.ThreadInstrs {
		fail("%d memory operations exceed %d thread instructions", m, s.ThreadInstrs)
	}
	if s.DRAMBytes != s.DRAMTxns*uint64(cfg.LineSize) {
		fail("%d DRAM bytes for %d transactions of %d-byte lines", s.DRAMBytes, s.DRAMTxns, cfg.LineSize)
	}
	if s.DivergentBranches > s.BranchInstrs {
		fail("%d divergent branches exceed %d branches", s.DivergentBranches, s.BranchInstrs)
	}
	if s.InterCTALines > s.GlobalLines {
		fail("%d inter-CTA lines exceed %d global lines", s.InterCTALines, s.GlobalLines)
	}
	if n := s.L1Hits + s.L1Misses; cfg.L1CacheKB == 0 && n != 0 {
		fail("%d L1 accesses without an L1", n)
	}
	if n := s.L2Hits + s.L2Misses; cfg.L2CacheKB == 0 && n != 0 {
		fail("%d L2 accesses without an L2", n)
	}
	var sum Stats
	for _, k := range s.PerKernel {
		sum.Merge(k)
	}
	for _, c := range []struct {
		name       string
		kernels, s any
	}{
		{"warp instructions", sum.WarpInstrs, s.WarpInstrs},
		{"thread instructions", sum.ThreadInstrs, s.ThreadInstrs},
		{"memory operations", sum.MemOps, s.MemOps},
		{"occupancy buckets", sum.Occupancy, s.Occupancy},
		{"branches", sum.BranchInstrs, s.BranchInstrs},
		{"divergent branches", sum.DivergentBranches, s.DivergentBranches},
		{"bank-conflict cycles", sum.BankConflictCycles, s.BankConflictCycles},
	} {
		if c.kernels != c.s {
			fail("per-kernel %s sum to %v, the total is %v", c.name, c.kernels, c.s)
		}
	}
	return errors.Join(errs...)
}

// String renders a one-screen summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "config=%s cycles=%d warp_instrs=%d thread_instrs=%d IPC=%.1f\n",
		s.Config, s.Cycles, s.WarpInstrs, s.ThreadInstrs, s.IPC())
	fmt.Fprintf(&b, "dram: %d txns, %d bytes, %.1f%% of peak BW\n",
		s.DRAMTxns, s.DRAMBytes, 100*s.BWUtilization())
	occ := s.OccupancyFractions()
	fmt.Fprintf(&b, "warp occupancy: 1-8=%.1f%% 9-16=%.1f%% 17-24=%.1f%% 25-32=%.1f%%\n",
		100*occ[0], 100*occ[1], 100*occ[2], 100*occ[3])
	mix := s.MemMix()
	fmt.Fprintf(&b, "mem mix: shared=%.1f%% tex=%.1f%% const=%.1f%% param=%.1f%% global/local=%.1f%%",
		100*mix[isa.SpaceShared], 100*mix[isa.SpaceTex], 100*mix[isa.SpaceConst],
		100*mix[isa.SpaceParam], 100*(mix[isa.SpaceGlobal]+mix[isa.SpaceLocal]))
	return b.String()
}
