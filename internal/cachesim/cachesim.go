// Package cachesim provides the trace consumers behind the paper's CPU
// characterization (Section IV): instruction mix, the shared-cache working
// set sweep (misses per memory reference at cache sizes from 128 kB to
// 16 MB), data-sharing behavior, and data footprints. The methodology
// follows Bienia et al.: one cache shared by all eight cores, 4-way
// associative, 64-byte lines.
package cachesim

import (
	"fmt"
	"math/bits"

	"repro/internal/trace"
)

// LineSize is the shared-cache line size in bytes.
const LineSize = 64

// DefaultSizesKB are the eight cache sizes of the working-set sweep.
var DefaultSizesKB = []int{128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// Mix counts the instruction mix (Figure 7's underlying features).
type Mix struct {
	ALU, Branch, Load, Store uint64
}

var _ trace.BatchConsumer = (*Mix)(nil)

// Events implements trace.BatchConsumer, accumulating in locals so the
// hot loop stays register-resident instead of bouncing four field writes
// per event through memory.
func (m *Mix) Events(batch []trace.Event) {
	var alu, branch, load, store uint64
	for i := range batch {
		switch e := &batch[i]; e.Kind {
		case trace.KindALU:
			alu += uint64(e.Count)
		case trace.KindBranch:
			branch += uint64(e.Count)
		case trace.KindLoad:
			load++
		case trace.KindStore:
			store++
		}
	}
	m.ALU += alu
	m.Branch += branch
	m.Load += load
	m.Store += store
}

// Total is the total modeled instruction count.
func (m *Mix) Total() uint64 { return m.ALU + m.Branch + m.Load + m.Store }

// MemRefs is the number of memory references.
func (m *Mix) MemRefs() uint64 { return m.Load + m.Store }

// Fractions returns (alu, branch, load, store) as fractions of the total.
func (m *Mix) Fractions() (alu, branch, load, store float64) {
	t := float64(m.Total())
	if t == 0 {
		return
	}
	return float64(m.ALU) / t, float64(m.Branch) / t, float64(m.Load) / t, float64(m.Store) / t
}

// SharedCache is one set-associative cache shared by all threads.
type SharedCache struct {
	SizeKB   int
	ways     int
	sets     int
	lineMask uint64
	tags     []uint64
	valid    []bool
	stamp    []uint64
	tick     uint64

	Accesses uint64
	Misses   uint64
}

// NewSharedCache builds a sizeKB cache with the given associativity.
func NewSharedCache(sizeKB, ways int) *SharedCache {
	lines := sizeKB * 1024 / LineSize
	sets := lines / ways
	if sets == 0 {
		sets = 1
	}
	// Power-of-two sets for mask indexing.
	for sets&(sets-1) != 0 {
		sets--
	}
	return &SharedCache{
		SizeKB:   sizeKB,
		ways:     ways,
		sets:     sets,
		lineMask: uint64(sets - 1),
		tags:     make([]uint64, sets*ways),
		valid:    make([]bool, sets*ways),
		stamp:    make([]uint64, sets*ways),
	}
}

var _ trace.BatchConsumer = (*SharedCache)(nil)

// Events implements trace.BatchConsumer.
func (c *SharedCache) Events(batch []trace.Event) {
	for i := range batch {
		c.probe(&batch[i])
	}
}

// probe looks up the line(s) of a memory event; other kinds are ignored.
func (c *SharedCache) probe(e *trace.Event) {
	if e.Kind != trace.KindLoad && e.Kind != trace.KindStore {
		return
	}
	c.access(e.Addr / LineSize)
	// An access straddling a line boundary touches the next line too.
	if (e.Addr+uint64(e.Size)-1)/LineSize != e.Addr/LineSize {
		c.access((e.Addr + uint64(e.Size) - 1) / LineSize)
	}
}

func (c *SharedCache) access(line uint64) {
	c.tick++
	c.Accesses++
	set := int(line&c.lineMask) * c.ways
	victim, oldest := set, ^uint64(0)
	for i := set; i < set+c.ways; i++ {
		if c.valid[i] && c.tags[i] == line {
			c.stamp[i] = c.tick
			return
		}
		if !c.valid[i] {
			victim, oldest = i, 0
		} else if c.stamp[i] < oldest {
			victim, oldest = i, c.stamp[i]
		}
	}
	c.Misses++
	c.tags[victim] = line
	c.valid[victim] = true
	c.stamp[victim] = c.tick
}

// MissRate is misses per access (the Figure 8/10 metric is misses per
// memory reference; accesses ~ references here).
func (c *SharedCache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// NaiveSweep runs several independent caches over one stream — the
// original working-set sweep, probing every cache on every reference.
// It is retained as the differential-test oracle for the single-pass
// Sweep; production code should use Sweep.
type NaiveSweep struct {
	Caches []*SharedCache
}

// NewNaiveSweep builds the default 128 kB – 16 MB, 4-way naive sweep.
func NewNaiveSweep() *NaiveSweep {
	s := &NaiveSweep{}
	for _, kb := range DefaultSizesKB {
		s.Caches = append(s.Caches, NewSharedCache(kb, 4))
	}
	return s
}

var _ trace.BatchConsumer = (*NaiveSweep)(nil)

// Events implements trace.BatchConsumer: every reference probes every
// cache.
func (s *NaiveSweep) Events(batch []trace.Event) {
	for i := range batch {
		for _, c := range s.Caches {
			c.probe(&batch[i])
		}
	}
}

// MissRates returns the per-size miss rates.
func (s *NaiveSweep) MissRates() []float64 {
	out := make([]float64, len(s.Caches))
	for i, c := range s.Caches {
		out[i] = c.MissRate()
	}
	return out
}

// ByKB returns the cache of the given size, if present.
func (s *NaiveSweep) ByKB(kb int) (*SharedCache, error) {
	for _, c := range s.Caches {
		if c.SizeKB == kb {
			return c, nil
		}
	}
	return nil, fmt.Errorf("cachesim: no %d kB cache in sweep", kb)
}

// maxDenseLine caps the dense line-mask table at 8 Mi lines (512 MiB of
// modeled data space, a 64 MiB table); lines above it go to a spillover
// map. Harness data addresses are allocated densely from 1 MiB up, so in
// practice every line lands in the table.
const maxDenseLine = 1 << 23

// Sharing tracks which threads touch each cache line (Figure 9): the
// fraction of lines accessed by more than one thread, and the fraction of
// references that hit such shared lines. Line masks live in a dense table
// indexed by line number (the harness allocates data space densely), with
// a map spillover for outlying addresses.
type Sharing struct {
	dense  []uint64          // line -> thread bitmask, below len(dense)
	sparse map[uint64]uint64 // spillover for lines ≥ maxDenseLine

	MemRefs          uint64
	AccessesToShared uint64
	Stores           uint64
	StoresToShared   uint64

	totalLines  int // distinct lines touched, kept incrementally
	sharedLines int // lines whose mask holds ≥ 2 bits, kept incrementally

	// One-entry cache of the last line's mask: consecutive references to
	// the same line (the common case under unit-stride access) skip the
	// table entirely.
	lastLine uint64
	lastMask uint64
	haveLast bool
}

// NewSharing builds a sharing tracker.
func NewSharing() *Sharing { return &Sharing{} }

var _ trace.BatchConsumer = (*Sharing)(nil)

// Events implements trace.BatchConsumer.
func (s *Sharing) Events(batch []trace.Event) {
	for i := range batch {
		e := &batch[i]
		if e.Kind != trace.KindLoad && e.Kind != trace.KindStore {
			continue
		}
		s.touch(e.Addr/LineSize, uint64(1)<<(e.Tid&63), e.Kind == trace.KindStore)
	}
}

func (s *Sharing) touch(line, bit uint64, isStore bool) {
	s.MemRefs++
	var mask uint64
	if s.haveLast && line == s.lastLine {
		mask = s.lastMask
	} else if line < uint64(len(s.dense)) {
		mask = s.dense[line]
		s.lastLine = line
		s.haveLast = true
	} else {
		mask = s.slowLoad(line)
	}
	shared := mask&^bit != 0
	if shared {
		s.AccessesToShared++
	}
	if isStore {
		s.Stores++
		if shared {
			s.StoresToShared++
		}
	}
	if mask&bit == 0 {
		switch {
		case mask == 0:
			s.totalLines++ // first toucher
		case mask&(mask-1) == 0:
			s.sharedLines++ // second distinct thread: line becomes shared
		}
		mask |= bit
		if line < uint64(len(s.dense)) {
			s.dense[line] = mask
		} else {
			s.sparse[line] = mask
		}
	}
	s.lastMask = mask
}

// slowLoad fetches a mask outside the current dense table, growing the
// table toward in-range lines and spilling outliers to the map.
func (s *Sharing) slowLoad(line uint64) uint64 {
	s.lastLine = line
	s.haveLast = true
	if line < maxDenseLine {
		n := uint64(1) << 16
		for n <= line {
			n <<= 1
		}
		grown := make([]uint64, n)
		copy(grown, s.dense)
		s.dense = grown
		return s.dense[line]
	}
	if s.sparse == nil {
		s.sparse = make(map[uint64]uint64)
	}
	return s.sparse[line]
}

// forEachLine invokes fn for every distinct line touched, in unspecified
// order.
func (s *Sharing) forEachLine(fn func(line, mask uint64)) {
	for line, mask := range s.dense {
		if mask != 0 {
			fn(uint64(line), mask)
		}
	}
	for line, mask := range s.sparse {
		fn(line, mask)
	}
}

// TotalLines is the number of distinct lines touched.
func (s *Sharing) TotalLines() int { return s.totalLines }

// SharedLines counts lines touched by more than one thread. The count is
// maintained incrementally, so callers (SharedLineFraction in particular)
// never rescan the line map.
func (s *Sharing) SharedLines() int { return s.sharedLines }

// SharedLineFraction is shared lines / total lines.
func (s *Sharing) SharedLineFraction() float64 {
	if s.totalLines == 0 {
		return 0
	}
	return float64(s.SharedLines()) / float64(s.totalLines)
}

// SharedAccessFraction is accesses to shared lines per memory reference.
func (s *Sharing) SharedAccessFraction() float64 {
	if s.MemRefs == 0 {
		return 0
	}
	return float64(s.AccessesToShared) / float64(s.MemRefs)
}

// SharedStoreFraction is stores to shared lines per store.
func (s *Sharing) SharedStoreFraction() float64 {
	if s.Stores == 0 {
		return 0
	}
	return float64(s.StoresToShared) / float64(s.Stores)
}

// MeanSharers is the mean number of distinct threads touching each line.
func (s *Sharing) MeanSharers() float64 {
	if s.totalLines == 0 {
		return 0
	}
	total := 0
	s.forEachLine(func(_, mask uint64) {
		total += bits.OnesCount64(mask)
	})
	return float64(total) / float64(s.totalLines)
}

// maxDensePage caps the dense page bitset at 4 Mi pages (16 GiB of
// modeled address space, a 512 KiB bitset); pages above it spill to a map.
const maxDensePage = 1 << 22

// DataFootprint counts unique 4 kB data pages touched (Figure 12). Pages
// are tracked in a dense bitset indexed by page number — the harness
// allocates data addresses densely — with a map spillover for outliers.
type DataFootprint struct {
	bitset   []uint64
	sparse   map[uint64]struct{}
	count    uint64
	lastPage uint64
	havePage bool
}

// NewDataFootprint builds a footprint counter.
func NewDataFootprint() *DataFootprint {
	return &DataFootprint{}
}

var _ trace.BatchConsumer = (*DataFootprint)(nil)

// Events implements trace.BatchConsumer.
func (f *DataFootprint) Events(batch []trace.Event) {
	for i := range batch {
		e := &batch[i]
		if e.Kind != trace.KindLoad && e.Kind != trace.KindStore {
			continue
		}
		f.touch(e.Addr >> 12)
	}
}

func (f *DataFootprint) touch(page uint64) {
	if f.havePage && page == f.lastPage {
		return
	}
	f.lastPage = page
	f.havePage = true
	if w := page >> 6; w < uint64(len(f.bitset)) {
		if bit := uint64(1) << (page & 63); f.bitset[w]&bit == 0 {
			f.bitset[w] |= bit
			f.count++
		}
		return
	}
	f.slowTouch(page)
}

// slowTouch marks a page outside the current bitset, growing the bitset
// toward in-range pages and spilling outliers to the map.
func (f *DataFootprint) slowTouch(page uint64) {
	if page < maxDensePage {
		n := uint64(1) << 10 // words; 64 Ki pages minimum
		for n<<6 <= page {
			n <<= 1
		}
		grown := make([]uint64, n)
		copy(grown, f.bitset)
		f.bitset = grown
		f.bitset[page>>6] |= uint64(1) << (page & 63)
		f.count++
		return
	}
	if f.sparse == nil {
		f.sparse = make(map[uint64]struct{})
	}
	if _, ok := f.sparse[page]; !ok {
		f.sparse[page] = struct{}{}
		f.count++
	}
}

// Pages is the number of distinct 4 kB pages touched.
func (f *DataFootprint) Pages() uint64 { return f.count }
