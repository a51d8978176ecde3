package gpusim

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
)

// stridedStep is the strided Step a replayed stride record gives: lane
// L's address is base + (L mod 16)*stride + (L div 16)*off.
func stridedStep(mask uint32, base, stride, off uint64) *isa.Step {
	return &isa.Step{
		ActiveMask: mask, ActiveCount: bits.OnesCount32(mask),
		Strided: true, Base: base, Stride: stride, HalfOff: off,
	}
}

// perLaneStep is st's per-lane twin: the same accesses, listed.
func perLaneStep(st *isa.Step) *isa.Step {
	return &isa.Step{ActiveMask: st.ActiveMask, ActiveCount: st.ActiveCount, Accesses: st.Lanes(nil)}
}

// lineRun lists n lines of 64 bytes from first, step lines apart.
func lineRun(first uint64, n int, step int64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = first + uint64(int64(i)*step*64)
	}
	return out
}

// TestCoalescerAndBankTable pins the coalescer's lines and the bank
// model's conflict degree on hand-worked records with 64-byte lines. A
// record is priced both as the strided step replay gives and as its
// per-lane twin, and both must give the worked answer, so a bug the two
// paths share cannot pass.
func TestCoalescerAndBankTable(t *testing.T) {
	neg := func(v int64) uint64 { return uint64(v) }
	var local []uint64 // lane L's line: the per-thread spread, 0x1000 or 0x1040
	var noCoal []uint64
	for lane := uint64(0); lane < 32; lane++ {
		line := uint64(0x1000) + lane/16*0x40
		local = append(local, lane<<40+line)
		noCoal = append(noCoal, line)
	}
	for _, tc := range []struct {
		name              string
		mask              uint32
		base, stride, off uint64
		space             isa.Space
		noCoalescing      bool
		banks             int
		lines             []uint64
		degree            int
	}{
		{name: "4-byte stride", mask: fullMask, base: 0x1000, stride: 4, off: 64, banks: 16,
			lines: lineRun(0x1000, 2, 1), degree: 1},
		{name: "word stride 2", mask: fullMask, base: 0x1000, stride: 8, off: 128, banks: 16,
			lines: lineRun(0x1000, 4, 1), degree: 2},
		{name: "word stride 16", mask: fullMask, base: 0x1000, stride: 64, off: 1024, banks: 16,
			lines: lineRun(0x1000, 32, 1), degree: 16},
		{name: "128-byte stride, 16 banks", mask: fullMask, base: 0x1000, stride: 128, off: 2048, banks: 16,
			lines: lineRun(0x1000, 32, 2), degree: 16},
		{name: "128-byte stride, 32 banks", mask: fullMask, base: 0x1000, stride: 128, off: 2048, banks: 32,
			lines: lineRun(0x1000, 32, 2), degree: 32},
		{name: "broadcast", mask: fullMask, base: 0x1010, banks: 16,
			lines: []uint64{0x1000}, degree: 1},
		{name: "negative stride", mask: fullMask, base: 0x2000, stride: neg(-4), off: neg(-64), banks: 16,
			lines: []uint64{0x2000, 0x1fc0, 0x1f80}, degree: 1},
		// Lanes 16-31 run over 0x1020-0x105c: only 0x1040 is new. On 32
		// banks the halves meet in banks 8-15 on the same words, which
		// broadcast.
		{name: "overlapping halves, 16 banks", mask: fullMask, base: 0x1000, stride: 4, off: 32, banks: 16,
			lines: []uint64{0x1000, 0x1040}, degree: 1},
		{name: "overlapping halves, 32 banks", mask: fullMask, base: 0x1000, stride: 4, off: 32, banks: 32,
			lines: []uint64{0x1000, 0x1040}, degree: 1},
		// Lanes 16-31 at 0x2020-0x205c meet lanes 0-15 in banks 8-15 on
		// other words.
		{name: "half-warp record, 32 banks", mask: fullMask, base: 0x1000, stride: 4, off: 0x1020, banks: 32,
			lines: []uint64{0x1000, 0x2000, 0x2040}, degree: 2},
		{name: "local space", mask: fullMask, base: 0x1000, stride: 4, off: 64, space: isa.SpaceLocal, banks: 16,
			lines: local, degree: 1},
		{name: "no coalescing", mask: fullMask, base: 0x1000, stride: 4, off: 64, noCoalescing: true, banks: 16,
			lines: noCoal, degree: 1},
		// Lanes 0-15 run down from 0x40 through 0 into the top of the
		// address space, so lanes 16-31, from 0x50 down, touch only their
		// lines; the record is priced lane by lane.
		{name: "half-warp record wrapping below 0", mask: fullMask, base: 0x40, stride: neg(-16), off: 16, banks: 16,
			lines: []uint64{0x40, 0, neg(-0x40), neg(-0x80), neg(-0xc0)}, degree: 4},
		// Two lanes of one half-warp in one bank: a full warp would give 16.
		{name: "partial mask", mask: 0b11, base: 0x1000, stride: 64, off: 1024, banks: 16,
			lines: []uint64{0x1000, 0x1040}, degree: 2},
	} {
		cfg := Base()
		cfg.NoCoalescing = tc.noCoalescing
		cfg.SharedBanks = tc.banks
		st := stridedStep(tc.mask, tc.base, tc.stride, tc.off)
		for _, s := range []*isa.Step{st, perLaneStep(st)} {
			form := "strided"
			if !s.Strided {
				form = "per-lane"
			}
			c := newCoalescer(&cfg)
			if got := c.lines(s, laneBaseOf(tc.space)); !slices.Equal(got, tc.lines) {
				t.Errorf("%s (%s): lines %#x, want %#x", tc.name, form, got, tc.lines)
			}
			var scr bankScratch
			if got := newBankModel(&cfg).degree(s, &scr); got != tc.degree {
				t.Errorf("%s (%s): degree %d, want %d", tc.name, form, got, tc.degree)
			}
		}
	}
}

// checkStridedPricing prices the strided step st both ways, from the
// record and lane by lane on its expansion (the oracle), and fails on
// any difference in the lines, their order or the conflict degree. It
// reports which of the two the record took its own path for.
func checkStridedPricing(t *testing.T, cfg *Config, st *isa.Step, space isa.Space) (coalFast, bankFast bool) {
	t.Helper()
	laneBase := laneBaseOf(space)
	c := newCoalescer(cfg)
	want := slices.Clone(c.laneLines(st.Lanes(nil), laneBase))
	if got := c.lines(st, laneBase); !slices.Equal(got, want) {
		t.Fatalf("%+v, line size %d, space %v, no coalescing %v:\nlines    %#x\nper lane %#x",
			*st, cfg.LineSize, space, cfg.NoCoalescing, got, want)
	}
	m := newBankModel(cfg)
	var scr bankScratch
	wantDeg := 1
	if m.enabled {
		wantDeg = m.laneDegree(st.Lanes(nil), &scr)
	}
	if got := m.degree(st, &scr); got != wantDeg {
		t.Fatalf("%+v, %d banks, conflicts %v: degree %d, per lane %d",
			*st, cfg.SharedBanks, cfg.BankConflicts, got, wantDeg)
	}
	_, coalFast = c.stridedLines(st)
	_, bankFast = m.stridedDegree(st)
	return coalFast && laneBase == 0 && !cfg.NoCoalescing, bankFast && m.enabled
}

// randomStridedStep draws a stride record over the ranges the strided
// paths guard: bases near 0, near 2^62 and near 2^64; strides of 0,
// either sign, at least the line size and at least 2^32; full, partial
// and single-lane masks; one stride across the warp or per half-warp.
func randomStridedStep(r *rand.Rand) *isa.Step {
	var base uint64
	switch r.Intn(4) {
	case 0:
		base = uint64(r.Intn(1 << 16))
	case 1:
		base = -uint64(r.Intn(1<<16) + 1)
	case 2:
		base = 1<<62 - uint64(r.Intn(1<<12))
	default:
		base = r.Uint64()
	}
	var stride uint64
	switch r.Intn(5) {
	case 0:
	case 1:
		stride = uint64(r.Intn(64)) * 4
	case 2:
		stride = uint64(r.Intn(8193))
	case 3:
		stride = uint64(r.Int63n(1<<40)) << uint(r.Intn(8))
	default:
		stride = r.Uint64()
	}
	if r.Intn(3) == 0 {
		stride = -stride
	}
	off := stride << 4
	if r.Intn(2) == 0 {
		switch r.Intn(3) {
		case 0:
			off += uint64(r.Intn(512)) - 256
		case 1:
			off = uint64(r.Intn(1 << 20))
		default:
			off = r.Uint64()
		}
	}
	if r.Intn(2) == 0 {
		// Word-aligned, as most real records are.
		base, stride, off = base&^3, stride&^3, off&^3
	}
	var mask uint32
	switch r.Intn(4) {
	case 0, 1:
		mask = fullMask
	case 2:
		mask = 1 << uint(r.Intn(32))
	default:
		mask = r.Uint32()
	}
	return stridedStep(mask, base, stride, off)
}

// TestStridedPricingMatchesLanes requires the strided coalescer and bank
// model to agree with the per-lane code on random records, over every
// space, line sizes 4-4096, bank counts 1-32 and both ablation knobs,
// and requires the strided paths to take a fair share of the records.
func TestStridedPricingMatchesLanes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	spaces := []isa.Space{isa.SpaceGlobal, isa.SpaceShared, isa.SpaceLocal, isa.SpaceConst, isa.SpaceTex, isa.SpaceParam}
	const n = 20000
	var coalFast, bankFast int
	for i := 0; i < n; i++ {
		cfg := Base()
		cfg.LineSize = 4 << uint(r.Intn(11))
		cfg.SharedBanks = 1 + r.Intn(32)
		cfg.NoCoalescing = r.Intn(4) == 0
		cfg.BankConflicts = r.Intn(4) != 0
		st := randomStridedStep(r)
		c, b := checkStridedPricing(t, &cfg, st, spaces[r.Intn(len(spaces))])
		if c {
			coalFast++
		}
		if b {
			bankFast++
		}
	}
	if coalFast < n/10 || bankFast < n/100 {
		t.Fatalf("strided paths priced %d (coalescer) and %d (banks) of %d records", coalFast, bankFast, n)
	}
}

// FuzzStridedPricing is TestStridedPricingMatchesLanes's invariant over
// arbitrary records and configurations.
func FuzzStridedPricing(f *testing.F) {
	f.Add(uint64(0x1000), uint64(4), uint64(64), uint32(fullMask), uint8(4), uint8(16), uint8(0))
	f.Add(uint64(0x1000), uint64(4), uint64(32), uint32(fullMask), uint8(4), uint8(32), uint8(1))
	neg := func(v int64) uint64 { return uint64(v) }
	f.Add(uint64(0x2000), neg(-4), neg(-64), uint32(0xffff0000), uint8(5), uint8(12), uint8(2))
	f.Add(neg(-64), uint64(1<<33), uint64(1<<37), uint32(0x80000001), uint8(10), uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, base, stride, off uint64, mask uint32, lineLog, banks, flags uint8) {
		spaces := []isa.Space{isa.SpaceGlobal, isa.SpaceShared, isa.SpaceLocal}
		cfg := Base()
		cfg.LineSize = 4 << (lineLog % 11)
		cfg.SharedBanks = 1 + int(banks%32)
		cfg.NoCoalescing = flags&4 != 0
		cfg.BankConflicts = flags&8 == 0
		checkStridedPricing(t, &cfg, stridedStep(mask, base, stride, off), spaces[int(flags%3)])
	})
}
