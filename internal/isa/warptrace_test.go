package isa

import (
	"math/bits"
	"reflect"
	"strings"
	"testing"
)

// tripKernel lays out instructions so the round-trip test can exercise
// every encoding path by PC: 0-2 ALU, 3 load, 4 store, 5 barrier,
// 6..205 nops (long-jump targets), then exit.
func tripKernel(t *testing.T) *Kernel {
	t.Helper()
	b := NewBuilder()
	r, r2 := b.I(), b.I()
	b.MovI(r, 0)                     // PC 0
	b.MovI(r, 1)                     // PC 1
	b.MovI(r, 2)                     // PC 2
	b.Ld(r2, I32, SpaceGlobal, r, 0) // PC 3
	b.St(I32, SpaceGlobal, r, 0, r2) // PC 4
	b.Bar()                          // PC 5
	for i := 0; i < 200; i++ {       // PC 6..205
		b.Nop()
	}
	b.Exit() // PC 206
	return b.Build("trip")
}

// maskStep builds a synthetic Step for the recorder: accesses (for mem
// PCs) cover the mask's set bits in ascending lane order, as execMem
// produces them.
func maskStep(k *Kernel, pc int, mask uint32, addrs []uint64) Step {
	st := Step{
		Instr:       &k.Instrs[pc],
		PC:          pc,
		ActiveMask:  mask,
		ActiveCount: bits.OnesCount32(mask),
	}
	if len(addrs) > 0 {
		i := 0
		for m := mask; m != 0; m &= m - 1 {
			st.Accesses = append(st.Accesses, MemAccess{Lane: bits.TrailingZeros32(m), Addr: addrs[i]})
			i++
		}
	}
	return st
}

// TestWarpTraceRoundTrip records a stream covering compact steps, full
// headers (divergence, mask changes, long forward jumps, backward
// jumps), every address mode (a warp stride, a broadcast, a negative
// stride, partial masks, a single lane, half-warp strides, and steps
// that fit neither form), a barrier and the exit, then replays it and
// asserts every reconstructed Step, its accesses expanded (Step.Lanes),
// matches the recorded one bit for bit. It also pins
// the bytes each step appends, so a step that silently falls back to
// per-lane addresses fails even though it still replays.
func TestWarpTraceRoundTrip(t *testing.T) {
	k := tripKernel(t)
	full := uint32(0xffffffff)
	half := uint32(0x0000ffff)

	// byLane lays out addresses for a mask's set bits, lane by lane.
	byLane := func(mask uint32, addr func(lane uint64) uint64) []uint64 {
		var out []uint64
		for m := mask; m != 0; m &= m - 1 {
			out = append(out, addr(uint64(bits.TrailingZeros32(m))))
		}
		return out
	}
	ldAddrs := make([]uint64, 16)
	for i := range ldAddrs {
		switch {
		case i < 8:
			ldAddrs[i] = 0x1000 + uint64(i)*4 // small ascending stride
		case i == 8:
			ldAddrs[i] = 0x4000_0000_0000 // large forward jump
		default:
			ldAddrs[i] = 0x4000_0000_0000 - uint64(i)*256 // descending run
		}
	}
	oneHalf := full &^ half
	splitHalf := uint32(1<<3) | oneHalf

	// Each step lists the bytes Record appends for it: a compact step is
	// 1, a full header 4, plus 4 for a new mask; a memory step adds its
	// mode byte and varints (zigzag values under 64 take 1 byte, under
	// 8192 2, under 2^20 3).
	steps := []struct {
		st Step
		n  int
	}{
		{maskStep(k, 0, full, nil), 8}, // full: the first step sets the mask
		{maskStep(k, 1, full, nil), 1}, // compact
		{func() Step { // full: diverged
			s := maskStep(k, 2, full, nil)
			s.Diverged = true
			return s
		}(), 4},
		// Neither form, one half-warp active: per-lane deltas 0x1000 (2),
		// 7 × 4 (1), the 2^46 jump (7), then -2304 (2) and 6 × -256 (2).
		{maskStep(k, 3, half, ldAddrs), 8 + 1 + 30},
		{maskStep(k, 150, half, nil), 4}, // full: advance 147 > 128
		{maskStep(k, 151, half, nil), 1}, // compact
		// Broadcast store (stride 0) after a backward jump with a new
		// mask: base delta -(2^46 - 0x2f00) (7), stride 0 (1).
		{maskStep(k, 4, full, byLane(full, func(uint64) uint64 { return 0x2000 })), 8 + 1 + 7 + 1},
		// Warp stride 4: base delta 0xe000 (3), stride (1).
		{maskStep(k, 3, full, byLane(full, func(l uint64) uint64 { return 0x10000 + 4*l })), 4 + 1 + 3 + 1},
		// Negative stride -8: base delta 0x100 (2), stride (1).
		{maskStep(k, 3, full, byLane(full, func(l uint64) uint64 { return 0x10100 - 8*l })), 4 + 1 + 2 + 1},
		// Partial mask, lanes 4-7 and 16-23 at stride 4 from lane 0's
		// 0x20000: base delta 0xff00 (3), stride (1).
		{maskStep(k, 3, 0x00ff00f0, byLane(0x00ff00f0, func(l uint64) uint64 { return 0x20000 + 4*l })), 8 + 1 + 3 + 1},
		// One active lane: stride 0, base delta 0x400 (2).
		{maskStep(k, 3, 1<<7, []uint64{0x20400}), 8 + 1 + 2 + 1},
		// A half-warp step with the first half inactive is a warp stride
		// from an extrapolated lane-0 base 0x2ffc0: base delta 0xfbc0 (3).
		{maskStep(k, 3, oneHalf, byLane(oneHalf, func(l uint64) uint64 { return 0x30000 + 4*(l-16) })), 8 + 1 + 3 + 1},
		// Half-warp rows 0x1000 apart: base delta 0x10040 (3), stride
		// (1), offset 0x1000 (2).
		{maskStep(k, 3, full, byLane(full, func(l uint64) uint64 { return 0x40000 + 0x1000*(l>>4) + 4*(l&15) })), 8 + 1 + 3 + 1 + 2},
		// Half-warp with one lane in the first half, whose stride comes
		// from the second: base delta 0x10000 (3), stride (1), offset
		// 0x8000 (3).
		{maskStep(k, 3, splitHalf, byLane(splitHalf, func(l uint64) uint64 { return 0x50000 + 0x8000*(l>>4) + 4*(l&15) })), 8 + 1 + 3 + 1 + 3},
		// Both halves strided, but by 4 and 8: neither form. Deltas
		// 0x10000 (3), 15 × 4 (1), 0xfc4 (2), 15 × 8 (1).
		{maskStep(k, 3, full, byLane(full, func(l uint64) uint64 {
			if l < 16 {
				return 0x60000 + 4*l
			}
			return 0x61000 + 8*(l-16)
		})), 8 + 1 + 3 + 15 + 2 + 15},
		{func() Step { // full: barrier
			s := maskStep(k, 5, full, nil)
			s.AtBarrier = true
			return s
		}(), 4},
		{func() Step { // full: exit
			s := maskStep(k, 206, full, nil)
			s.Done = true
			return s
		}(), 4},
	}

	launch := Launch{Grid: 1, Block: 32}
	rec, err := NewLaunchRecorder(k, launch)
	if err != nil {
		t.Fatal(err)
	}
	ws := rec.BeginCTA(0)
	for i := range steps {
		before := len(ws[0].data)
		ws[0].Record(&steps[i].st)
		if n := len(ws[0].data) - before; n != steps[i].n {
			t.Errorf("step %d (PC %d) appended %d bytes, want %d", i, steps[i].st.PC, n, steps[i].n)
		}
	}
	rec.EndCTA()
	lt := rec.Finalize()
	if lt.Bytes() <= 0 {
		t.Fatal("finalized trace reports no bytes")
	}

	cta := MakeReplayCTA(lt, 0)
	w := cta.Warps[0]
	for i := range steps {
		if w.Done() {
			t.Fatalf("step %d: warp done early", i)
		}
		var got Step
		if err := w.Exec(cta.Env, &got); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want := steps[i].st
		if got.Instr != &k.Instrs[want.PC] {
			t.Fatalf("step %d: Instr points at PC %d, want %d", i, got.PC, want.PC)
		}
		got.Instr, want.Instr = nil, nil
		// Compare the expanded form: a stride record replays as a
		// strided step, the recorder saw per-lane accesses. Normalize
		// empty access slices too.
		got.Accesses = got.Lanes(nil)
		got.Strided, got.Base, got.Stride, got.HalfOff = false, 0, 0, 0
		if len(got.Accesses) == 0 {
			got.Accesses = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d:\n got %+v\nwant %+v", i, got, want)
		}
		if got.AtBarrier {
			if !w.AtBarrier() {
				t.Fatalf("step %d: barrier step did not park the warp", i)
			}
			var dummy Step
			if err := w.Exec(cta.Env, &dummy); err == nil {
				t.Fatal("Exec at barrier did not fail")
			}
			w.ReleaseBarrier()
		}
	}
	if !w.Done() {
		t.Fatal("warp not done after its recorded exit")
	}
	// Exec after done is the documented no-op Done step.
	var extra Step
	if err := w.Exec(cta.Env, &extra); err != nil || !extra.Done {
		t.Fatalf("Exec after done: step %+v, err %v", extra, err)
	}
}

// TestReplayDecodesIntoCallerBuffer replays the memory steps of two
// warps, alternately, into one zero Step: every decode must land in the
// buffer the first one allocated, since a ReplayWarp holds none.
func TestReplayDecodesIntoCallerBuffer(t *testing.T) {
	k := tripKernel(t)
	rec, err := NewLaunchRecorder(k, Launch{Grid: 1, Block: 64})
	if err != nil {
		t.Fatal(err)
	}
	full := uint32(0xffffffff)
	addrs := func(w uint64) []uint64 {
		out := make([]uint64, 32)
		for i := range out {
			out[i] = w<<20 + uint64(i*i) // neither form: per-lane deltas
		}
		return out
	}
	ws := rec.BeginCTA(0)
	for w := range ws {
		for _, pc := range []int{3, 4} {
			s := maskStep(k, pc, full, addrs(uint64(w)))
			ws[w].Record(&s)
		}
	}
	rec.EndCTA()
	cta := MakeReplayCTA(rec.Finalize(), 0)
	var st Step
	var buf *MemAccess
	for i := 0; i < 4; i++ {
		w := i % 2
		if err := cta.Warps[w].Exec(cta.Env, &st); err != nil {
			t.Fatal(err)
		}
		if buf == nil {
			buf = &st.Accesses[0]
		} else if &st.Accesses[0] != buf {
			t.Fatalf("step %d (warp %d) decoded into a buffer of its own", i, w)
		}
		if want := addrs(uint64(w)); len(st.Accesses) != 32 || st.Accesses[31].Addr != want[31] {
			t.Fatalf("step %d (warp %d): %d accesses, last at %#x", i, w, len(st.Accesses), st.Accesses[len(st.Accesses)-1].Addr)
		}
	}
}

// TestWarpTraceExhaustion replays streams no recorder writes — one with
// no recorded exit, PCs outside the kernel, an unknown address mode, and
// address records cut short — and asserts each replay fails with an
// error instead of panicking or fabricating steps.
func TestWarpTraceExhaustion(t *testing.T) {
	k := tripKernel(t)
	rec, err := NewLaunchRecorder(k, Launch{Grid: 1, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	s := maskStep(k, 0, 0xffffffff, nil)
	rec.BeginCTA(0)[0].Record(&s)
	rec.EndCTA()
	lt := rec.Finalize()

	cta := MakeReplayCTA(lt, 0)
	w := cta.Warps[0]
	var got Step
	if err := w.Exec(cta.Env, &got); err != nil {
		t.Fatal(err)
	}
	if err := w.Exec(cta.Env, &got); err == nil {
		t.Fatal("exhausted replay did not fail")
	}

	b := NewBuilder()
	b.MovI(b.I(), 0)
	b.Exit()
	two := b.Build("two")
	// A full header loading at PC 3 of tripKernel with all lanes active,
	// then its address record.
	ld := []byte{traceFull | traceNewMask, 3, 0, 0, 0xff, 0xff, 0xff, 0xff}
	rec2 := func(tail ...byte) []byte { return append(append([]byte(nil), ld...), tail...) }
	for _, c := range []struct {
		name string
		k    *Kernel
		data []byte
		want string
	}{
		{"full header PC past the end", two, []byte{traceFull, 0xff, 0xff, 0}, "PC 65535 outside"},
		{"compact advance past the end", two, []byte{0, 0x7f}, "PC 128 outside"},
		{"unknown address mode", k, rec2(0x7), "unknown address mode 0x7"},
		{"stride record without its stride", k, rec2(addrStride, 0x02), "exhausted"},
		{"stride record inside a varint", k, rec2(addrStride, 0x80), "exhausted"},
		{"half-warp record without its offset", k, rec2(addrHalf, 0x02, 0x08), "exhausted"},
		{"per-lane record short of its lanes", k, rec2(addrLanes, 0x02, 0x02), "exhausted"},
		{"address record missing", k, rec2(), "exhausted"},
		{"stride varint over 64 bits", k, rec2(addrStride, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), "overflows"},
		{"per-lane varint over 64 bits", k, rec2(addrLanes, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), "overflows"},
	} {
		lt := &LaunchTrace{Kernel: c.k, Launch: Launch{Grid: 1, Block: 32}, Warps: []WarpTrace{{Data: c.data}}}
		cta := MakeReplayCTA(lt, 0)
		var err error
		for i := 0; i < len(c.data) && err == nil; i++ {
			err = cta.Warps[0].Exec(cta.Env, &got)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestLaunchRecorderWarpIndexing records distinct streams into the four
// warps of a 2-CTA launch, CTA 1 first, and asserts MakeReplayCTA hands
// each replay warp its own stream — both from the live Trace, as soon as
// the CTA's EndCTA ran, and from the finalized slab.
func TestLaunchRecorderWarpIndexing(t *testing.T) {
	k := tripKernel(t)
	launch := Launch{Grid: 2, Block: 64} // 2 warps per CTA
	rec, err := NewLaunchRecorder(k, launch)
	if err != nil {
		t.Fatal(err)
	}
	check := func(lt *LaunchTrace, ctaID int) {
		t.Helper()
		cta := MakeReplayCTA(lt, ctaID)
		for wi, wx := range cta.Warps {
			var got Step
			if err := wx.Exec(cta.Env, &got); err != nil {
				t.Fatal(err)
			}
			if want := 6 + ctaID*2 + wi; got.PC != want {
				t.Fatalf("cta %d warp %d replayed PC %d, want %d", ctaID, wi, got.PC, want)
			}
		}
	}
	for _, cta := range []int{1, 0} {
		ws := rec.BeginCTA(cta)
		for wi := range ws {
			s := maskStep(k, 6+cta*2+wi, 0xffffffff, nil) // unique nop PC per warp
			ws[wi].Record(&s)
		}
		rec.EndCTA()
		check(rec.Trace(), cta)
	}
	lt := rec.Finalize()
	if lt.WarpsPerCTA() != 2 {
		t.Fatalf("WarpsPerCTA = %d, want 2", lt.WarpsPerCTA())
	}
	for ctaID := 0; ctaID < 2; ctaID++ {
		check(lt, ctaID)
	}
}

// TestCTAResetMatchesFresh runs block 0 of a kernel that reads its
// zero-initialized registers, shared and local memory, diverges and
// waits at a barrier, then resets the CTA to block 1 and runs it again.
// The recorded streams and the stored results must equal those of a
// fresh MakeCTA for block 1.
func TestCTAResetMatchesFresh(t *testing.T) {
	b := NewBuilder()
	b.SetShared(64 * 8)
	b.SetLocal(8)
	tid, ctaid, gid, i, n, acc, addr, zero, base, unset := b.I(), b.I(), b.I(), b.I(), b.I(), b.I(), b.I(), b.I(), b.I(), b.I()
	b.Rd(tid, SpecTid)
	b.Rd(ctaid, SpecCta)
	b.IMulI(gid, ctaid, 64)
	b.IAdd(gid, gid, tid)
	b.MovI(zero, 0)
	b.ShlI(addr, tid, 3)
	b.Ld(acc, I64, SpaceShared, addr, 0) // zero in a fresh CTA
	b.Ld(i, I64, SpaceLocal, zero, 0)    // likewise
	b.IAdd(acc, acc, i)
	b.IAdd(acc, acc, unset) // a register nothing writes
	b.IAdd(unset, unset, gid)
	b.IAndI(n, gid, 7)
	b.For(i, 0, n, 1, func() { b.IAdd(acc, acc, gid) }) // divergent trip counts
	b.St(I64, SpaceLocal, zero, 0, acc)
	b.St(I64, SpaceShared, addr, 0, acc)
	b.Bar()
	b.Ld(acc, I64, SpaceShared, addr, 0)
	b.Ld(i, I64, SpaceLocal, zero, 0)
	b.IAdd(acc, acc, i)
	b.LdParamI(base, 0)
	b.ShlI(addr, gid, 3)
	b.IAdd(addr, addr, base)
	b.St(I64, SpaceGlobal, addr, 0, acc)
	k := b.Build("reset")
	launch := Launch{Grid: 2, Block: 64}

	run := func(cta *CTA, mem *Memory, rec *LaunchRecorder) {
		t.Helper()
		cta.Env.Mem = mem
		var f Functional
		if err := f.RunCTA(k, cta, rec); err != nil {
			t.Fatal(err)
		}
	}
	newMem := func() (*Memory, uint64) {
		mem := NewMemory()
		out := mem.AllocGlobal(2 * 64 * 8)
		mem.SetParamI(0, int64(out))
		return mem, out
	}
	memFresh, outFresh := newMem()
	recFresh, _ := NewLaunchRecorder(k, launch)
	run(MakeCTA(k, 1, launch, memFresh), memFresh, recFresh)

	memReset, outReset := newMem()
	recReset, _ := NewLaunchRecorder(k, launch)
	cta := MakeCTA(k, 0, launch, memReset)
	run(cta, memReset, recReset)
	cta.Reset(1)
	run(cta, memReset, recReset)

	for w := 0; w < 2; w++ {
		got, want := recReset.Trace().Warps[2+w].Data, recFresh.Trace().Warps[2+w].Data
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block 1 warp %d: reset CTA recorded %d bytes, fresh CTA %d", w, len(got), len(want))
		}
	}
	for j := 64; j < 128; j++ {
		got := memReset.ReadI64(SpaceGlobal, outReset+uint64(j*8))
		want := memFresh.ReadI64(SpaceGlobal, outFresh+uint64(j*8))
		if got != want || (j%8 != 0 && want == 0) {
			t.Fatalf("out[%d] = %d after Reset, %d fresh", j, got, want)
		}
	}
}
