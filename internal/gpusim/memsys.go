package gpusim

import (
	"math/bits"
	"slices"

	"repro/internal/isa"
)

// fullMask is the active mask of a warp with every lane active.
const fullMask = 1<<isa.WarpSize - 1

// coalescer merges the lanes of one warp memory instruction into unique
// line-sized transactions (the per-warp coalescing hardware). laneBase,
// when nonzero, disambiguates per-thread (local) address spaces. With
// coalescing disabled (an ablation knob) every access becomes its own
// transaction.
type coalescer struct {
	lineShift uint
	disabled  bool
	scratch   []uint64
	lanes     [isa.WarpSize]isa.MemAccess // Step.Lanes buffer for laneLines
}

func newCoalescer(cfg *Config) coalescer {
	c := coalescer{disabled: cfg.NoCoalescing}
	for l := cfg.LineSize; l > 1; l >>= 1 {
		c.lineShift++
	}
	return c
}

// lines returns the coalesced line addresses of a warp memory step, in
// the order its lanes first touch them. A strided step is priced from
// its record (stridedLines) unless its space is per-thread or coalescing
// is off; every other step lane by lane. The returned slice aliases
// internal scratch, valid until the next call.
func (c *coalescer) lines(st *isa.Step, laneBase uint64) []uint64 {
	if st.Strided && laneBase == 0 && !c.disabled {
		if lines, ok := c.stridedLines(st); ok {
			return lines
		}
	}
	return c.laneLines(st.Lanes(c.lanes[:]), laneBase)
}

// laneLines is the per-lane coalescer: the path for per-lane steps, local
// space, disabled coalescing and stride records near the top of the
// address space, and the oracle the strided path is tested against.
func (c *coalescer) laneLines(accesses []isa.MemAccess, laneBase uint64) []uint64 {
	scratch := c.scratch[:0]
	for i := range accesses {
		a := &accesses[i]
		addr := a.Addr
		if laneBase != 0 {
			addr += uint64(a.Lane) << 40
		}
		line := (addr >> c.lineShift) << c.lineShift
		if c.disabled {
			scratch = append(scratch, line)
			continue
		}
		// Lanes are visited in ascending order and addresses are usually
		// monotone, so a repeated line is almost always the one just
		// emitted — check it before the full dedup scan.
		if n := len(scratch); n > 0 && scratch[n-1] == line {
			continue
		}
		seen := false
		for _, x := range scratch {
			if x == line {
				seen = true
				break
			}
		}
		if !seen {
			scratch = append(scratch, line)
		}
	}
	c.scratch = scratch
	return scratch
}

// stridedLines emits a strided step's lines arithmetically, in the
// per-lane order. It reports false, leaving the step to laneLines, when
// a lane address could wrap past 2^64 (halfRunFits): within the guard
// every half-warp is a monotone run of addresses, so its lines are
// monotone too, and a line the half-warp already touched is always the
// last one emitted.
//
//   - A full warp under one stride narrower than a line touches every
//     line from lane 0's to lane 31's, each once: the run is emitted
//     directly.
//   - Otherwise lanes go in order, each checked against the last line
//     emitted. Under one stride the whole warp is one monotone run;
//     under a half-warp record, lanes 16-31 are also checked against the
//     lines of lanes 0-15.
func (c *coalescer) stridedLines(st *isa.Step) ([]uint64, bool) {
	mask := st.ActiveMask
	base, stride, off := st.Base, st.Stride, st.HalfOff
	if mask&0xffff != 0 && !halfRunFits(base, stride) || mask>>16 != 0 && !halfRunFits(base+off, stride) {
		return nil, false
	}
	shift := c.lineShift
	out := c.scratch[:0]
	warp := off == stride<<4
	if s := int64(stride); warp && mask == fullMask && s < 1<<shift && s > -1<<shift {
		line := base >> shift << shift
		last := (base + 31*stride) >> shift << shift
		step := uint64(1) << shift
		if s < 0 {
			step = -step
		}
		for ; line != last; line += step {
			out = append(out, line)
		}
		c.scratch = append(out, last)
		return c.scratch, true
	}
	// A half-warp record's lines of lanes 0-15, a monotone run within
	// [lo, hi].
	var first []uint64
	lo, hi := uint64(1), uint64(0)
	for h := 0; h < 2; h++ {
		a := base + uint64(h)*off
		for m := mask >> (16 * h) & 0xffff; m != 0; m &= m - 1 {
			line := (a + uint64(bits.TrailingZeros32(m))*stride) >> shift << shift
			if n := len(out); n > 0 && out[n-1] == line ||
				line >= lo && line <= hi && slices.Contains(first, line) {
				continue
			}
			out = append(out, line)
		}
		if n := len(out); !warp && n > 0 {
			first = out
			lo, hi = min(out[0], out[n-1]), max(out[0], out[n-1])
		}
	}
	c.scratch = out
	return out, true
}

// halfRunFits reports whether the 16 addresses a + k*stride, k = 0..15,
// lie in [0, 2^62) without wrapping: the guard under which a strided
// record's lanes are priced from the record.
func halfRunFits(a, stride uint64) bool {
	const limit = 1 << 62
	s := int64(stride)
	if a >= limit || s >= 1<<57 || s <= -1<<57 {
		return false
	}
	end := int64(a) + 15*s
	return end >= 0 && end < limit
}

// bankModel computes the shared-memory bank-conflict degree: the maximum
// number of distinct words mapping to one bank. Identical words broadcast
// and do not conflict. Hardware with fewer banks than lanes services the
// warp in lane groups of the bank count (half-warps on 16-bank parts), so
// conflicts are computed within each group and the worst group governs.
// It is stateless.
type bankModel struct {
	banks   int
	mask    uint64 // banks-1 when banks is a power of two
	shift   uint   // log2(banks) when banks is a power of two
	pow2    bool
	enabled bool
}

func newBankModel(cfg *Config) bankModel {
	banks := cfg.SharedBanks
	if banks > 32 {
		banks = 32 // a warp has at most 32 lanes; more banks never conflict
	}
	m := bankModel{banks: banks, enabled: cfg.BankConflicts}
	// Real parts have power-of-two bank counts; precompute shift and mask
	// so degree prices each access without hardware divisions.
	if banks > 0 && banks&(banks-1) == 0 {
		m.pow2 = true
		m.mask = uint64(banks - 1)
		for b := banks; b > 1; b >>= 1 {
			m.shift++
		}
	}
	return m
}

// bankScratch is fixed-size per-SM bookkeeping for degree: per bank, the
// distinct words seen in the current lane group, and the buffer a
// strided step expands into when it takes the per-lane path. A warp has
// at most 32 lanes, so 32 words per bank always suffice, and reusing the
// scratch keeps the conflict model allocation-free on the hot path. Each
// SM owns one (smCaches.bankScr).
type bankScratch struct {
	words [32][32]uint64
	count [32]uint8
	lanes [isa.WarpSize]isa.MemAccess
}

// degree returns a shared-memory step's conflict degree. A word-aligned
// stride record on a power-of-two bank count is priced from its word
// stride and mask (stridedDegree); every other step lane by lane.
func (m bankModel) degree(st *isa.Step, scr *bankScratch) int {
	if !m.enabled {
		return 1
	}
	if st.Strided {
		if d, ok := m.stridedDegree(st); ok {
			return d
		}
	}
	return m.laneDegree(st.Lanes(scr.lanes[:]), scr)
}

// stridedDegree prices a strided step whose every bank group is one run
// of lanes under one stride: groups inside half-warps, or one stride
// across the warp. Word-aligned and without wrapping, a group's words
// w0 + k*ws are distinct, and lanes k and k' share a bank exactly when
// k ≡ k' modulo p = banks / 2^min(t, log2 banks), t the trailing zeros
// of ws. So the degree is the most active lanes of one group in one
// residue class mod p: 2^min(t, log2 banks) for a full warp, 1 when
// t = 0 or ws = 0 (a broadcast). It reports false for every other
// record.
func (m bankModel) stridedDegree(st *isa.Step) (int, bool) {
	base, stride, off := st.Base, st.Stride, st.HalfOff
	if !m.pow2 || (base|stride|off)&3 != 0 || m.banks > 16 && off != stride<<4 ||
		!halfRunFits(base, stride) || !halfRunFits(base+off, stride) {
		return 0, false
	}
	if stride == 0 {
		return 1, true
	}
	t := min(uint(bits.TrailingZeros64(stride>>2)), m.shift)
	if st.ActiveMask == fullMask || t == 0 {
		return 1 << t, true
	}
	// Each group's lanes by residue class: class 0 is every p-th lane of
	// the group, class r that pattern shifted by r.
	p := uint(1) << (m.shift - t)
	group := uint64(1)<<m.banks - 1
	class := group / (1<<p - 1)
	degree := 1
	for g := uint(0); g < isa.WarpSize; g += uint(m.banks) {
		lanes := uint64(st.ActiveMask) >> g & group
		for r := uint(0); r < p; r++ {
			degree = max(degree, bits.OnesCount64(lanes&(class<<r)))
		}
	}
	return degree, true
}

// laneDegree is the per-lane bank model, and the oracle stridedDegree is
// tested against.
func (m bankModel) laneDegree(accesses []isa.MemAccess, scr *bankScratch) int {
	banks := m.banks
	degree := 1
	group := -1
	for i := range accesses {
		a := &accesses[i]
		var g, bank int
		word := a.Addr >> 2
		if m.pow2 {
			g = a.Lane >> m.shift
			bank = int(word & m.mask)
		} else {
			g = a.Lane / banks
			bank = int(word) % banks
		}
		if g != group {
			group = g
			for i := 0; i < banks; i++ {
				scr.count[i] = 0
			}
		}
		n := int(scr.count[bank])
		seen := false
		for _, x := range scr.words[bank][:n] {
			if x == word {
				seen = true
				break
			}
		}
		if !seen {
			scr.words[bank][n] = word
			scr.count[bank] = uint8(n + 1)
			if n+1 > degree {
				degree = n + 1
			}
		}
	}
	return degree
}

// The sharing tracker's dense table covers line indices below
// shareDenseMax (with a 64-byte line that is the first 1 GiB of global
// address space — far beyond any benchmark arena here), allocated in
// pages so sparse address ranges cost nothing. Lines beyond it spill to
// a map, preserving correctness for arbitrary addresses.
const (
	sharePageBits = 12
	sharePageSize = 1 << sharePageBits
	shareDenseMax = 1 << 24
)

// sharingTracker records which CTA first touched each global line,
// feeding the inter-CTA sharing statistics. It persists across launches
// on the GPU, like the caches. Ownership is kept in a paged dense table
// indexed by line number rather than a map — tracking is on the pricing
// path of every global-memory instruction — encoded as 0 for untouched,
// -1 for shared, and cta+1 for a single-owner line.
type sharingTracker struct {
	lineShift uint
	pages     [][]int32
	spill     map[uint64]int32
}

func newSharingTracker(lineSize int) *sharingTracker {
	var shift uint
	for l := lineSize; l > 1; l >>= 1 {
		shift++
	}
	return &sharingTracker{
		lineShift: shift,
		pages:     make([][]int32, shareDenseMax/sharePageSize),
	}
}

func (t *sharingTracker) track(cta int, lines []uint64, gs *Stats) {
	for _, line := range lines {
		gs.GlobalLineAccesses++
		idx := line >> t.lineShift
		if idx >= shareDenseMax {
			t.trackSpill(cta, line, gs)
			continue
		}
		pg := t.pages[idx>>sharePageBits]
		if pg == nil {
			pg = make([]int32, sharePageSize)
			t.pages[idx>>sharePageBits] = pg
		}
		slot := &pg[idx&(sharePageSize-1)]
		switch owner := *slot; {
		case owner == 0:
			*slot = int32(cta) + 1
			gs.GlobalLines++
		case owner == -1:
			gs.InterCTAAccesses++
		case owner != int32(cta)+1:
			*slot = -1
			gs.InterCTALines++
			gs.InterCTAAccesses++
		}
	}
}

// trackSpill handles lines beyond the dense table's coverage.
func (t *sharingTracker) trackSpill(cta int, line uint64, gs *Stats) {
	if t.spill == nil {
		t.spill = make(map[uint64]int32)
	}
	owner, seen := t.spill[line]
	switch {
	case !seen:
		t.spill[line] = int32(cta)
		gs.GlobalLines++
	case owner == -1:
		gs.InterCTAAccesses++
	case owner != int32(cta):
		t.spill[line] = -1
		gs.InterCTALines++
		gs.InterCTAAccesses++
	}
}

// linePath resolves one line transaction starting at cycle now against an
// SM's private caches and whatever sits behind them, returning the
// completion cycle.
type linePath func(now uint64, caches *smCaches, line uint64) uint64

// memSubsystem prices warp memory instructions: the coalescer, the
// bank-conflict model and the cache hierarchy in front of the DRAM
// channels. The hierarchy differences between configurations — GT200
// without data caches, Fermi with a unified L2 and either shared- or
// L1-biased SMs — are wired as line paths at construction instead of
// branches inside the event loop.
//
// localCost touches only state private to the SM, so the event loop
// settles it while an SM runs ahead of the clock (runAhead); sharedCost
// routes through the caches, the DRAM channels and the sharing tracker,
// which are launch-global, so the loop calls it in (cycle, SM index)
// order.
type memSubsystem struct {
	cfg     *Config
	coal    coalescer
	banks   bankModel
	sharing *sharingTracker

	constPath linePath
	texPath   linePath
	loadPath  linePath // global/local loads
	storePath linePath // global/local stores (bypass the L1)
}

func newMemSubsystem(cfg *Config, l2 *cache, d *fifoDRAM, sharing *sharingTracker) *memSubsystem {
	ms := &memSubsystem{
		cfg:     cfg,
		coal:    newCoalescer(cfg),
		banks:   newBankModel(cfg),
		sharing: sharing,
	}

	// The L2 (when present) fronts DRAM for texture, global and local
	// traffic; constant fetches miss straight to DRAM, as on GT200.
	l2Fill := func(now, line uint64) uint64 { return d.access(now, line) }
	if l2 != nil {
		l2Lat := uint64(cfg.L2Latency)
		l2Fill = func(now, line uint64) uint64 {
			if l2.access(line) {
				return now + l2Lat
			}
			return d.access(now, line) + l2Lat
		}
	}
	ms.storePath = func(now uint64, _ *smCaches, line uint64) uint64 {
		return l2Fill(now, line)
	}

	constLat := uint64(cfg.ConstLatency)
	if cfg.ConstCacheKB > 0 {
		ms.constPath = func(now uint64, c *smCaches, line uint64) uint64 {
			if c.constC.access(line) {
				return now + constLat
			}
			return d.access(now, line) + constLat
		}
	} else {
		ms.constPath = func(now uint64, _ *smCaches, line uint64) uint64 {
			return d.access(now, line) + constLat
		}
	}

	texLat := uint64(cfg.TexLatency)
	if cfg.TexCacheKB > 0 {
		ms.texPath = func(now uint64, c *smCaches, line uint64) uint64 {
			if c.texC.access(line) {
				return now + texLat
			}
			return l2Fill(now, line) + texLat
		}
	} else {
		ms.texPath = func(now uint64, _ *smCaches, line uint64) uint64 {
			return l2Fill(now, line) + texLat
		}
	}

	if cfg.L1CacheKB > 0 {
		l1Lat := uint64(cfg.L1Latency)
		ms.loadPath = func(now uint64, c *smCaches, line uint64) uint64 {
			if c.l1.access(line) {
				return now + l1Lat
			}
			return l2Fill(now, line)
		}
	} else {
		ms.loadPath = ms.storePath
	}
	return ms
}

// sharedSpace reports whether pricing the instruction routes through the
// launch-global memory system (caches, DRAM, sharing tracker) rather
// than SM-local resources.
func sharedSpace(sp isa.Space) bool {
	return sp != isa.SpaceParam && sp != isa.SpaceShared
}

// localCost prices the memory spaces private to an SM — parameter reads
// and shared memory with its bank conflicts — charging conflict cycles
// to ks.
func (ms *memSubsystem) localCost(st *isa.Step, issue uint64, ks *Stats, scr *bankScratch) (uint64, uint64) {
	if st.Instr.Space == isa.SpaceParam {
		return issue, uint64(ms.cfg.ParamLatency)
	}
	degree := ms.banks.degree(st, scr)
	if degree > 1 {
		extra := uint64(degree-1) * issue
		ks.BankConflictCycles += extra
		return issue * uint64(degree), uint64(ms.cfg.SharedLatency) + extra
	}
	return issue, uint64(ms.cfg.SharedLatency)
}

// laneBaseOf returns the per-lane address offset coalescing needs for
// the space: local addresses are per-thread, so they are spread out to
// keep coalescing and channel interleaving per-thread distinct.
func laneBaseOf(space isa.Space) uint64 {
	if space == isa.SpaceLocal {
		return 1
	}
	return 0
}

// isStoreOp reports whether the op writes memory (atomics excluded: they
// read-modify-write and are priced as loads).
func isStoreOp(op isa.Op) bool { return op == isa.OpSt || op == isa.OpStF }

// sharedCost prices the memory spaces that go through the cache
// hierarchy and DRAM channels (constant, texture, global, local,
// atomics): it routes the step's coalesced lines through the caches, the
// DRAM channels and, for global accesses, the sharing tracker at cycle
// now. It returns the issue charge, one extra slot per line beyond the
// first, and the warp latency: the last line's completion for loads,
// ALULatency for stores (which are buffered; the warp proceeds once the
// transactions are issued, but they still consume DRAM bandwidth here).
// Callers must serialize invocations in global (cycle, SM index) order.
func (ms *memSubsystem) sharedCost(now uint64, caches *smCaches, cta int, st *isa.Step, issue uint64, gs *Stats) (uint64, uint64) {
	space := st.Instr.Space
	lines := ms.coal.lines(st, laneBaseOf(space))
	issue += uint64(len(lines) - 1)
	switch space {
	case isa.SpaceConst:
		return issue, ms.complete(now, caches, ms.constPath, lines) - now
	case isa.SpaceTex:
		return issue, ms.complete(now, caches, ms.texPath, lines) - now
	}
	// Global, local and atomics.
	if space == isa.SpaceGlobal {
		ms.sharing.track(cta, lines, gs)
	}
	if isStoreOp(st.Instr.Op) {
		ms.complete(now, caches, ms.storePath, lines)
		return issue, uint64(ms.cfg.ALULatency)
	}
	return issue, ms.complete(now, caches, ms.loadPath, lines) - now
}

// complete sends each line down the path and returns the last completion
// cycle, at least now.
func (ms *memSubsystem) complete(now uint64, caches *smCaches, path linePath, lines []uint64) uint64 {
	done := now
	for _, line := range lines {
		if t := path(now, caches, line); t > done {
			done = t
		}
	}
	return done
}
