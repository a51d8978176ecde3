package isa

import (
	"math/bits"
	"reflect"
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
		in := &k.Instrs[pc]
		store := in.Op == OpSt || in.Op == OpStF || in.Op == OpAtom
		i := 0
		for m := mask; m != 0; m &= m - 1 {
			st.Accesses = append(st.Accesses, MemAccess{
				Lane:  bits.TrailingZeros32(m),
				Addr:  addrs[i],
				Size:  in.MType.Size(),
				Store: store,
			})
			i++
		}
	}
	return st
}

// TestWarpTraceRoundTrip records a stream covering compact steps, full
// headers (divergence, mask changes, long forward jumps, backward
// jumps), varint address patterns (ascending strides, large jumps,
// descending runs, broadcasts), a barrier and the exit, then replays it
// and asserts every reconstructed Step matches bit for bit.
func TestWarpTraceRoundTrip(t *testing.T) {
	k := tripKernel(t)
	full := uint32(0xffffffff)
	half := uint32(0x0000ffff)

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
	stAddrs := make([]uint64, 32)
	for i := range stAddrs {
		stAddrs[i] = 0x2000 // broadcast: every delta zero
	}

	steps := []Step{
		maskStep(k, 0, full, nil), // compact: first advance
		maskStep(k, 1, full, nil), // compact
		func() Step { // full: diverged
			s := maskStep(k, 2, full, nil)
			s.Diverged = true
			return s
		}(),
		maskStep(k, 3, half, ldAddrs), // full: mask change + load
		maskStep(k, 150, half, nil),   // full: advance 147 > 128
		maskStep(k, 151, half, nil),   // compact
		maskStep(k, 4, full, stAddrs), // full: backward jump + mask + store
		func() Step { // full: barrier
			s := maskStep(k, 5, full, nil)
			s.AtBarrier = true
			return s
		}(),
		func() Step { // full: exit
			s := maskStep(k, 206, full, nil)
			s.Done = true
			return s
		}(),
	}

	launch := Launch{Grid: 1, Block: 32}
	rec, err := NewLaunchRecorder(k, launch)
	if err != nil {
		t.Fatal(err)
	}
	ws := rec.BeginCTA(0)
	for i := range steps {
		ws[0].Record(&steps[i])
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
		want := steps[i]
		if got.Instr != &k.Instrs[want.PC] {
			t.Fatalf("step %d: Instr points at PC %d, want %d", i, got.PC, want.PC)
		}
		got.Instr, want.Instr = nil, nil
		// Normalize empty access slices for the comparison.
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

// TestWarpTraceExhaustion replays a stream with no recorded exit and
// asserts the replay fails loudly instead of fabricating steps.
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
