// Package kernels implements the twelve Rodinia benchmarks on the virtual
// GPU ISA: Back Propagation, Breadth-First Search, CFD, Heartwall, HotSpot,
// Kmeans, Leukocyte, LU Decomposition, MUMmerGPU, Needleman-Wunsch, SRAD
// and StreamCluster, plus the incrementally optimized versions of SRAD and
// Leukocyte from Table III of the paper.
//
// Each benchmark provides an Instance with a host-side Run driver (which
// may launch several kernels, iterate, and read device results between
// launches, exactly like the CUDA host code) and a Check that validates
// device results against a CPU reference implementation.
package kernels

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sizes"
)

// Instance is one configured run of a benchmark: device memory already
// populated with inputs, a host driver, and a validation oracle.
type Instance struct {
	Bench *Benchmark
	Size  sizes.Class
	Mem   *isa.Memory

	run   func(ex isa.Executor, mem *isa.Memory) error
	check func(mem *isa.Memory) error
}

// Run executes the benchmark's kernel launches on the executor and ends
// with its Wait, so whatever the executor accumulates (a gpusim.GPU's
// Stats and capture) is complete when Run returns, even when a launch
// failed.
func (in *Instance) Run(ex isa.Executor) error {
	err := in.run(ex, in.Mem)
	if werr := ex.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", in.Bench.Name, err)
	}
	return nil
}

// Check validates device results against the CPU reference.
func (in *Instance) Check() error {
	if err := in.check(in.Mem); err != nil {
		return fmt.Errorf("%s: %w", in.Bench.Name, err)
	}
	return nil
}

// SizeTable maps each size class to a benchmark's input parameters and
// renders the human-readable size string from them, so SimSize strings
// are derived from the table rather than hand-maintained.
type SizeTable struct {
	// Params holds one parameter vector per sizes.Class; its meaning is
	// benchmark-specific (documented next to each table).
	Params [sizes.NumClasses][]int
	// Render formats a parameter vector as the "Simulated size" string.
	Render func(p []int) string
}

// SimSize renders the size string for one class.
func (t *SizeTable) SimSize(c sizes.Class) string { return t.Render(t.Params[c]) }

// Benchmark describes one Rodinia application (Table I).
type Benchmark struct {
	Name      string
	Abbrev    string
	Dwarf     string
	Domain    string
	PaperSize string // problem size from Table I

	// Sizes is the benchmark's per-class input table; sizes.Medium holds
	// the historical simulation-scaled input.
	Sizes SizeTable

	New func(c sizes.Class) *Instance
}

// SimSize is the simulated problem size at class c, derived from the
// size table.
func (b *Benchmark) SimSize(c sizes.Class) string { return b.Sizes.SimSize(c) }

// Instance builds a fresh instance of the benchmark at the default size
// class (the historical medium input). Prefer this over calling New
// directly.
func (b *Benchmark) Instance() *Instance { return b.InstanceAt(sizes.Default) }

// InstanceAt builds a fresh instance at the given size class with its
// back-pointer and size recorded.
func (b *Benchmark) InstanceAt(c sizes.Class) *Instance {
	in := b.New(c)
	in.Bench = b
	in.Size = c
	return in
}

// All returns the twelve benchmarks in the paper's figure order:
// BP, BFS, CFD, HW, HS, KM, LC, LUD, MUM, NW, SRAD, SC.
func All() []*Benchmark {
	return []*Benchmark{
		BackProp, BFS, CFD, Heartwall, HotSpot, Kmeans,
		Leukocyte, LUD, MUMmer, NW, SRAD, StreamCluster,
	}
}

// ByAbbrev looks a benchmark up by its figure label (case-sensitive).
func ByAbbrev(ab string) (*Benchmark, bool) {
	for _, b := range All() {
		if b.Abbrev == ab {
			return b, true
		}
	}
	return nil, false
}

// rng is a small deterministic linear congruential generator so benchmark
// inputs are reproducible without pulling in math/rand state.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*2862933555777941757 + 3037000493} }

func (r *rng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 17
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()%(1<<53)) / (1 << 53) }

// globalThreadID emits gid = ctaid*ntid + tid into a fresh register.
func globalThreadID(b *isa.Builder) isa.IReg {
	tid, cta, ntid, gid := b.I(), b.I(), b.I(), b.I()
	b.Rd(tid, isa.SpecTid)
	b.Rd(cta, isa.SpecCta)
	b.Rd(ntid, isa.SpecNTid)
	b.IMul(gid, cta, ntid)
	b.IAdd(gid, gid, tid)
	return gid
}

// ceilDiv returns ceil(a/b) for positive operands.
func ceilDiv(a, b int) int { return (a + b - 1) / b }
