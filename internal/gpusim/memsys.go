package gpusim

import "repro/internal/isa"

// coalescer merges the lanes of one warp memory instruction into unique
// line-sized transactions (the per-warp coalescing hardware). laneBase,
// when nonzero, disambiguates per-thread (local) address spaces. With
// coalescing disabled (an ablation knob) every access becomes its own
// transaction.
type coalescer struct {
	lineShift uint
	disabled  bool
	scratch   []uint64
}

func newCoalescer(cfg *Config) coalescer {
	c := coalescer{disabled: cfg.NoCoalescing}
	for l := cfg.LineSize; l > 1; l >>= 1 {
		c.lineShift++
	}
	return c
}

// lines returns the coalesced line addresses for a warp's accesses. The
// returned slice aliases internal scratch, valid until the next call.
func (c *coalescer) lines(accesses []isa.MemAccess, laneBase uint64) []uint64 {
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

// bankModel computes the shared-memory bank-conflict degree: the maximum
// number of distinct words mapping to one bank. Identical words broadcast
// and do not conflict. Hardware with fewer banks than lanes services the
// warp in lane groups of the bank count (half-warps on 16-bank parts), so
// conflicts are computed within each group and the worst group governs.
// It is stateless and safe to call from concurrent SM shards.
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
// distinct words seen in the current lane group. A warp has at most 32
// lanes, so 32 words per bank always suffice, and reusing the scratch
// keeps the conflict model allocation-free on the hot path. Each SM owns
// one (smRT.bankScr) so concurrent shards never share it.
type bankScratch struct {
	words [32][32]uint64
	count [32]uint8
}

func (m bankModel) degree(accesses []isa.MemAccess, scr *bankScratch) int {
	if !m.enabled {
		return 1
	}
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
// localCost touches no launch-global state and may be called from
// concurrent SM shards; sharedCost routes through the caches, the DRAM
// channels and the sharing tracker and must be called serialized, in SM
// index order, to keep parallel runs bit-identical to sequential ones.
type memSubsystem struct {
	cfg     *Config
	coal    coalescer
	banks   bankModel
	sharing *sharingTracker
	dram    dramModel

	constPath linePath
	texPath   linePath
	loadPath  linePath // global/local loads
	storePath linePath // global/local stores (bypass the L1)

	// Per-space lower bounds on a load's latency (priceLines' return for
	// store=false), derived from the shortest path through each hierarchy:
	// a cache hit when the cache exists, the full miss path otherwise.
	// The epoch-parallel simulator parks a warp at issue+minLoadLat-style
	// bounds before the real latency is known, so these must never exceed
	// what priceLines can return (clamped ≥ 1 so a bound always lies
	// strictly past the issue cycle).
	minConstLat uint64
	minTexLat   uint64
	minLoadLat  uint64
}

func newMemSubsystem(cfg *Config, l2 *cache, d dramModel, sharing *sharingTracker) *memSubsystem {
	ms := &memSubsystem{
		cfg:     cfg,
		coal:    newCoalescer(cfg),
		banks:   newBankModel(cfg),
		sharing: sharing,
		dram:    d,
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

	// Shortest completion through each path mirrors the wiring above.
	minDRAM := d.minAccess()
	l2Min := minDRAM
	if l2 != nil {
		l2Min = uint64(cfg.L2Latency)
	}
	ms.minConstLat = constLat
	if cfg.ConstCacheKB <= 0 {
		ms.minConstLat = minDRAM + constLat
	}
	ms.minTexLat = texLat
	if cfg.TexCacheKB <= 0 {
		ms.minTexLat = l2Min + texLat
	}
	ms.minLoadLat = l2Min
	if cfg.L1CacheKB > 0 {
		ms.minLoadLat = uint64(cfg.L1Latency)
	}
	clamp1 := func(v *uint64) {
		if *v < 1 {
			*v = 1
		}
	}
	clamp1(&ms.minConstLat)
	clamp1(&ms.minTexLat)
	clamp1(&ms.minLoadLat)
	return ms
}

// minLoadLatency returns the λ bound for a load from the space: no load
// priced by priceLines completes in fewer cycles than this. See the
// minConstLat field comment for the epoch-parallel contract.
func (ms *memSubsystem) minLoadLatency(space isa.Space) uint64 {
	switch space {
	case isa.SpaceConst:
		return ms.minConstLat
	case isa.SpaceTex:
		return ms.minTexLat
	default:
		return ms.minLoadLat
	}
}

// sharedSpace reports whether pricing the instruction routes through the
// launch-global memory system (caches, DRAM, sharing tracker) rather
// than SM-local resources.
func sharedSpace(sp isa.Space) bool {
	return sp != isa.SpaceParam && sp != isa.SpaceShared
}

// localCost prices the memory spaces private to an SM — parameter reads
// and shared memory with its bank conflicts — charging conflict cycles
// to ks. Safe under concurrent per-shard execution.
func (ms *memSubsystem) localCost(st *isa.Step, issue uint64, ks *Stats, scr *bankScratch) (uint64, uint64) {
	if st.Instr.Space == isa.SpaceParam {
		return issue, uint64(ms.cfg.ParamLatency)
	}
	degree := ms.banks.degree(st.Accesses, scr)
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
// atomics). Callers must serialize invocations in SM index order.
func (ms *memSubsystem) sharedCost(now uint64, caches *smCaches, cta int, st *isa.Step, issue uint64, gs *Stats) (uint64, uint64) {
	space := st.Instr.Space
	lines := ms.coal.lines(st.Accesses, laneBaseOf(space))
	store := isStoreOp(st.Instr.Op)
	lat := ms.priceLines(now, caches, cta, space, store, lines, gs)
	return issue + uint64(len(lines)-1), lat
}

// priceLines routes one warp instruction's coalesced lines through the
// launch-global memory system at cycle now — caches, DRAM channels and,
// for global accesses, the sharing tracker — and returns the warp
// latency: the last line's completion for loads, ALULatency for stores
// (which are buffered; the warp proceeds once the transactions are
// issued, but they still consume DRAM bandwidth here). The issue-slot
// charge (one extra slot per line beyond the first) is the caller's,
// since it needs no global state. Callers must serialize invocations in
// global (cycle, SM index) order; the epoch-parallel coordinator calls
// this directly from buffered per-SM logs with exactly that ordering.
func (ms *memSubsystem) priceLines(now uint64, caches *smCaches, cta int, space isa.Space, store bool, lines []uint64, gs *Stats) uint64 {
	switch space {
	case isa.SpaceConst:
		return ms.complete(now, caches, ms.constPath, lines) - now
	case isa.SpaceTex:
		return ms.complete(now, caches, ms.texPath, lines) - now
	default: // global, local, atomics
		if space == isa.SpaceGlobal {
			ms.sharing.track(cta, lines, gs)
		}
		path := ms.loadPath
		if store {
			path = ms.storePath
		}
		done := ms.complete(now, caches, path, lines)
		if store {
			return uint64(ms.cfg.ALULatency)
		}
		return done - now
	}
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
