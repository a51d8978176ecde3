package cachesim

import (
	"fmt"

	"repro/internal/trace"
)

// Sweep computes the working-set miss-rate curve (Figure 8) for a family
// of set-associative LRU caches in a single fused pass over the stream,
// replacing NaiveSweep's eight independent cache probes per reference.
//
// Each size keeps one per-set LRU recency stack truncated at the
// associativity: an MRU-ordered array of the `ways` most recently used
// distinct lines of that set. A line's position in the stack is its LRU
// stack distance; it hits exactly when it is resident, i.e. when its
// distance is below the associativity — so the stacks reproduce LRU
// hit/miss behavior bit-for-bit while storing only tags, MRU-ordered in
// one contiguous block per set (32 B at 4 ways: half the naive path's
// tag+valid+timestamp traffic, and no timestamp bookkeeping at all).
//
// One probe per reference walks all sizes at once, and a one-entry
// repeat-line filter short-circuits consecutive references to the same
// line entirely: a just-accessed line sits on top of every stack, so a
// repeat is a distance-zero hit at every size and reorders nothing.
type Sweep struct {
	SizesKB []int

	Accesses uint64

	// Probes counts the accesses that survived the repeat-line filter and
	// actually walked the recency stacks — the Probes/Accesses ratio is
	// the filter's measured effectiveness on a workload.
	Probes uint64

	misses []uint64
	levels []sweepLevel
	ways   int

	lastLine uint64
	haveLast bool
}

// sweepLevel is one cache size's per-set recency stacks: tags holds
// sets×ways entries, each set's slice MRU-ordered. Entries store line+1
// so the zero value means an empty slot.
type sweepLevel struct {
	mask uint64 // sets - 1
	tags []uint64
}

// NewSweep builds the default single-pass 128 kB – 16 MB, 4-way sweep.
func NewSweep() *Sweep { return NewSweepSizes(DefaultSizesKB, 4) }

// NewSweepSizes builds a single-pass sweep over the given cache sizes
// and associativity, with the same geometry per size as
// NewSharedCache(sizeKB, ways).
func NewSweepSizes(sizesKB []int, ways int) *Sweep {
	if len(sizesKB) == 0 {
		panic("cachesim: sweep needs at least one size")
	}
	if ways < 1 {
		panic("cachesim: sweep needs at least one way")
	}
	s := &Sweep{
		SizesKB: append([]int(nil), sizesKB...),
		misses:  make([]uint64, len(sizesKB)),
		levels:  make([]sweepLevel, len(sizesKB)),
		ways:    ways,
	}
	for i, kb := range sizesKB {
		sets := kb * 1024 / LineSize / ways
		if sets == 0 {
			sets = 1
		}
		// Power-of-two sets for mask indexing, as NewSharedCache.
		for sets&(sets-1) != 0 {
			sets--
		}
		s.levels[i] = sweepLevel{mask: uint64(sets - 1), tags: make([]uint64, sets*ways)}
	}
	return s
}

var _ trace.BatchConsumer = (*Sweep)(nil)

// Events implements trace.BatchConsumer.
func (s *Sweep) Events(batch []trace.Event) {
	for i := range batch {
		e := &batch[i]
		if e.Kind != trace.KindLoad && e.Kind != trace.KindStore {
			continue
		}
		s.access(e.Addr / LineSize)
		// An access straddling a line boundary touches the next line too.
		if (e.Addr+uint64(e.Size)-1)/LineSize != e.Addr/LineSize {
			s.access((e.Addr + uint64(e.Size) - 1) / LineSize)
		}
	}
}

func (s *Sweep) access(line uint64) {
	s.Accesses++
	if s.haveLast && line == s.lastLine {
		return // top of every stack: distance-zero hit at every size
	}
	s.lastLine = line
	s.haveLast = true
	s.Probes++
	tag := line + 1
	if s.ways == 4 {
		// Unrolled probe for the paper's 4-way geometry: explicit
		// rotations keep the whole stack update register-resident.
		for j := range s.levels {
			lvl := &s.levels[j]
			b := int(line&lvl.mask) * 4
			t := lvl.tags[b : b+4 : b+4]
			switch tag {
			case t[0]:
			case t[1]:
				t[1] = t[0]
				t[0] = tag
			case t[2]:
				t[2] = t[1]
				t[1] = t[0]
				t[0] = tag
			default:
				if t[3] != tag {
					s.misses[j]++
				}
				t[3] = t[2]
				t[2] = t[1]
				t[1] = t[0]
				t[0] = tag
			}
		}
		return
	}
	w := s.ways
	for j := range s.levels {
		lvl := &s.levels[j]
		set := lvl.tags[int(line&lvl.mask)*w:]
		set = set[:w:w]
		if set[0] == tag {
			continue // already MRU in this set
		}
		// Scan the recency stack; on a hit at depth d, rotate the line
		// to the top. Misses push it on top and drop the LRU entry.
		d := 1
		for d < w && set[d] != tag {
			d++
		}
		if d == w {
			s.misses[j]++
			d = w - 1
		}
		copy(set[1:d+1], set[:d])
		set[0] = tag
	}
}

// MissRates returns the per-size miss rates (misses per access).
func (s *Sweep) MissRates() []float64 {
	out := make([]float64, len(s.misses))
	if s.Accesses == 0 {
		return out
	}
	for i, m := range s.misses {
		out[i] = float64(m) / float64(s.Accesses)
	}
	return out
}

// Misses returns a copy of the per-size miss counts.
func (s *Sweep) Misses() []uint64 { return append([]uint64(nil), s.misses...) }

// SweepPoint is one cache size's accumulated counts.
type SweepPoint struct {
	SizeKB   int
	Accesses uint64
	Misses   uint64
}

// MissRate is misses per access.
func (p SweepPoint) MissRate() float64 {
	if p.Accesses == 0 {
		return 0
	}
	return float64(p.Misses) / float64(p.Accesses)
}

// ByKB returns the counts accumulated for the given cache size.
func (s *Sweep) ByKB(kb int) (SweepPoint, error) {
	for i, size := range s.SizesKB {
		if size == kb {
			return SweepPoint{SizeKB: kb, Accesses: s.Accesses, Misses: s.misses[i]}, nil
		}
	}
	return SweepPoint{}, fmt.Errorf("cachesim: no %d kB cache in sweep", kb)
}
