package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTidAndStore(t *testing.T) {
	b := NewBuilder()
	tid := b.I()
	addr := b.I()
	base := b.I()
	b.Rd(tid, SpecTid)
	b.LdParamI(base, 0)
	b.ShlI(addr, tid, 2)
	b.IAdd(addr, addr, base)
	b.St(I32, SpaceGlobal, addr, 0, tid)
	k := b.Build("tidstore")

	mem := NewMemory()
	out := mem.AllocGlobal(64 * 4)
	mem.SetParamI(0, int64(out))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: 64}, mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if got := mem.ReadI32(SpaceGlobal, out+uint64(i*4)); got != int32(i) {
			t.Fatalf("out[%d] = %d, want %d", i, got, i)
		}
	}
}

func TestIfElseDivergence(t *testing.T) {
	// Even threads write tid*2, odd threads write -tid. This diverges
	// within every warp.
	b := NewBuilder()
	tid, addr, base, v, parity := b.I(), b.I(), b.I(), b.I(), b.I()
	p := b.P()
	b.Rd(tid, SpecTid)
	b.LdParamI(base, 0)
	b.IAndI(parity, tid, 1)
	b.SetpII(p, CmpEQ, parity, 0)
	b.If(p, func() {
		b.IMulI(v, tid, 2)
	}, func() {
		b.INeg(v, tid)
	})
	b.ShlI(addr, tid, 3)
	b.IAdd(addr, addr, base)
	b.St(I64, SpaceGlobal, addr, 0, v)
	k := b.Build("ifelse")

	mem := NewMemory()
	out := mem.AllocGlobal(100 * 8)
	mem.SetParamI(0, int64(out))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: 100}, mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		want := int64(i * 2)
		if i%2 == 1 {
			want = int64(-i)
		}
		if got := mem.ReadI64(SpaceGlobal, out+uint64(i*8)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestDivergentLoopTripCounts(t *testing.T) {
	// Thread i sums 0..i-1; trip counts diverge across the warp.
	b := NewBuilder()
	tid, addr, base, sum, i := b.I(), b.I(), b.I(), b.I(), b.I()
	b.Rd(tid, SpecTid)
	b.LdParamI(base, 0)
	b.MovI(sum, 0)
	b.For(i, 0, tid, 1, func() {
		b.IAdd(sum, sum, i)
	})
	b.ShlI(addr, tid, 3)
	b.IAdd(addr, addr, base)
	b.St(I64, SpaceGlobal, addr, 0, sum)
	k := b.Build("divloop")

	mem := NewMemory()
	out := mem.AllocGlobal(70 * 8)
	mem.SetParamI(0, int64(out))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: 70}, mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70; i++ {
		want := int64(i * (i - 1) / 2)
		if got := mem.ReadI64(SpaceGlobal, out+uint64(i*8)); got != want {
			t.Fatalf("sum[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestNestedControlFlow(t *testing.T) {
	// count[tid] = number of odd j in [0, tid).
	b := NewBuilder()
	tid, addr, base, cnt, j, bit := b.I(), b.I(), b.I(), b.I(), b.I(), b.I()
	p := b.P()
	b.Rd(tid, SpecTid)
	b.LdParamI(base, 0)
	b.MovI(cnt, 0)
	b.For(j, 0, tid, 1, func() {
		b.IAndI(bit, j, 1)
		b.SetpII(p, CmpEQ, bit, 1)
		b.If(p, func() {
			b.IAddI(cnt, cnt, 1)
		}, nil)
	})
	b.ShlI(addr, tid, 3)
	b.IAdd(addr, addr, base)
	b.St(I64, SpaceGlobal, addr, 0, cnt)
	k := b.Build("nested")

	mem := NewMemory()
	out := mem.AllocGlobal(40 * 8)
	mem.SetParamI(0, int64(out))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: 40}, mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		want := int64(i / 2)
		if got := mem.ReadI64(SpaceGlobal, out+uint64(i*8)); got != want {
			t.Fatalf("cnt[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestSharedMemoryReduction(t *testing.T) {
	// Classic tree reduction over shared memory with barriers, across
	// multiple warps (block = 128).
	const block = 128
	b := NewBuilder()
	b.SetShared(block * 8)
	tid, saddr, base, v, stride, other, oaddr := b.I(), b.I(), b.I(), b.I(), b.I(), b.I(), b.I()
	p := b.P()
	b.Rd(tid, SpecTid)
	b.LdParamI(base, 0)
	b.ShlI(saddr, tid, 3)
	// shared[tid] = tid+1
	b.IAddI(v, tid, 1)
	b.St(I64, SpaceShared, saddr, 0, v)
	b.Bar()
	b.MovI(stride, block/2)
	b.While(func() PReg {
		b.SetpII(p, CmpGT, stride, 0)
		return p
	}, func() {
		pin := b.P()
		b.SetpI(pin, CmpLT, tid, stride)
		b.If(pin, func() {
			b.IAdd(other, tid, stride)
			b.ShlI(oaddr, other, 3)
			a := b.I()
			c := b.I()
			b.Ld(a, I64, SpaceShared, saddr, 0)
			b.Ld(c, I64, SpaceShared, oaddr, 0)
			b.IAdd(a, a, c)
			b.St(I64, SpaceShared, saddr, 0, a)
		}, nil)
		b.Bar()
		b.ShrI(stride, stride, 1)
	})
	pz := b.P()
	b.SetpII(pz, CmpEQ, tid, 0)
	b.If(pz, func() {
		r := b.I()
		b.Ld(r, I64, SpaceShared, saddr, 0)
		b.St(I64, SpaceGlobal, base, 0, r)
	}, nil)
	k := b.Build("reduce")

	mem := NewMemory()
	out := mem.AllocGlobal(8)
	mem.SetParamI(0, int64(out))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: block}, mem); err != nil {
		t.Fatal(err)
	}
	want := int64(block * (block + 1) / 2)
	if got := mem.ReadI64(SpaceGlobal, out); got != want {
		t.Fatalf("reduction = %d, want %d", got, want)
	}
}

func TestFloatOpsAndConversions(t *testing.T) {
	b := NewBuilder()
	tid, base, addr := b.I(), b.I(), b.I()
	x, y := b.F(), b.F()
	b.Rd(tid, SpecTid)
	b.LdParamI(base, 0)
	b.I2F(x, tid)
	b.FAddI(x, x, 1)  // x = tid+1
	b.FMulI(y, x, 2)  // y = 2(tid+1)
	b.Sqrt(y, y)      // y = sqrt(2(tid+1))
	b.FMA(y, y, y, x) // y = y*y + x = 2(tid+1) + (tid+1) = 3(tid+1)
	b.ShlI(addr, tid, 3)
	b.IAdd(addr, addr, base)
	b.StF(F64, SpaceGlobal, addr, 0, y)
	k := b.Build("floats")

	mem := NewMemory()
	out := mem.AllocGlobal(32 * 8)
	mem.SetParamI(0, int64(out))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: 32}, mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := 3 * float64(i+1)
		got := mem.ReadF64(SpaceGlobal, out+uint64(i*8))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("f[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestF32RoundTrip(t *testing.T) {
	b := NewBuilder()
	tid, base, addr := b.I(), b.I(), b.I()
	x := b.F()
	b.Rd(tid, SpecTid)
	b.LdParamI(base, 0)
	b.ShlI(addr, tid, 2)
	b.IAdd(addr, addr, base)
	b.LdF(x, F32, SpaceGlobal, addr, 0)
	b.FMulI(x, x, 0.5)
	b.StF(F32, SpaceGlobal, addr, 0, x)
	k := b.Build("f32")

	mem := NewMemory()
	buf := mem.AllocGlobal(16 * 4)
	for i := 0; i < 16; i++ {
		mem.WriteF32(SpaceGlobal, buf+uint64(i*4), float32(i)*4)
	}
	mem.SetParamI(0, int64(buf))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: 16}, mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if got := mem.ReadF32(SpaceGlobal, buf+uint64(i*4)); got != float32(i)*2 {
			t.Fatalf("f32[%d] = %g, want %g", i, got, float32(i)*2)
		}
	}
}

func TestAtomicAdd(t *testing.T) {
	// All threads across several CTAs add 1 to a global counter.
	b := NewBuilder()
	base, one, old := b.I(), b.I(), b.I()
	b.LdParamI(base, 0)
	b.MovI(one, 1)
	b.AtomAdd(old, SpaceGlobal, base, 0, one)
	k := b.Build("atom")

	mem := NewMemory()
	ctr := mem.AllocGlobal(4)
	mem.SetParamI(0, int64(ctr))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 4, Block: 96}, mem); err != nil {
		t.Fatal(err)
	}
	if got := mem.ReadI32(SpaceGlobal, ctr); got != 4*96 {
		t.Fatalf("counter = %d, want %d", got, 4*96)
	}
}

func TestEarlyExitGuard(t *testing.T) {
	// Threads with tid >= 20 exit before the store; divergence must not
	// corrupt the remaining threads.
	b := NewBuilder()
	tid, base, addr := b.I(), b.I(), b.I()
	p := b.P()
	b.Rd(tid, SpecTid)
	b.SetpII(p, CmpGE, tid, 20)
	b.If(p, func() {
		b.Exit()
	}, nil)
	b.LdParamI(base, 0)
	b.ShlI(addr, tid, 2)
	b.IAdd(addr, addr, base)
	one := b.I()
	b.MovI(one, 1)
	b.St(I32, SpaceGlobal, addr, 0, one)
	k := b.Build("earlyexit")

	mem := NewMemory()
	out := mem.AllocGlobal(64 * 4)
	mem.SetParamI(0, int64(out))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: 64}, mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		want := int32(0)
		if i < 20 {
			want = 1
		}
		if got := mem.ReadI32(SpaceGlobal, out+uint64(i*4)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestConstTexParamSpaces(t *testing.T) {
	b := NewBuilder()
	tid, addr, base := b.I(), b.I(), b.I()
	c, tx, sum := b.F(), b.F(), b.F()
	zero := b.I()
	b.Rd(tid, SpecTid)
	b.LdParamI(base, 0)
	b.MovI(zero, 0)
	b.LdF(c, F64, SpaceConst, zero, 0)
	b.ShlI(addr, tid, 3)
	b.LdF(tx, F64, SpaceTex, addr, 0)
	b.FAdd(sum, c, tx)
	b.IAdd(addr, addr, base)
	b.StF(F64, SpaceGlobal, addr, 0, sum)
	k := b.Build("spaces")

	mem := NewMemory()
	out := mem.AllocGlobal(8 * 8)
	cst := mem.AllocConst(8)
	tex := mem.AllocTex(8 * 8)
	mem.WriteF64(SpaceConst, cst, 100)
	for i := 0; i < 8; i++ {
		mem.WriteF64(SpaceTex, tex+uint64(i*8), float64(i))
	}
	mem.SetParamI(0, int64(out))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: 8}, mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got := mem.ReadF64(SpaceGlobal, out+uint64(i*8)); got != 100+float64(i) {
			t.Fatalf("out[%d] = %g, want %g", i, got, 100+float64(i))
		}
	}
}

func TestOutOfBoundsLoadFails(t *testing.T) {
	b := NewBuilder()
	addr, v := b.I(), b.I()
	b.MovI(addr, 1<<30)
	b.Ld(v, I32, SpaceGlobal, addr, 0)
	k := b.Build("oob")

	var ex Functional
	err := ex.Launch(k, Launch{Grid: 1, Block: 1}, NewMemory())
	if err == nil {
		t.Fatal("expected out-of-bounds error, got nil")
	}
}

func TestLaunchValidation(t *testing.T) {
	b := NewBuilder()
	k := b.Build("empty")
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 0, Block: 32}, NewMemory()); err == nil {
		t.Error("grid=0 accepted")
	}
	if err := ex.Launch(k, Launch{Grid: 1, Block: 2048}, NewMemory()); err == nil {
		t.Error("block=2048 accepted")
	}
}

func TestBuildAppendsExit(t *testing.T) {
	b := NewBuilder()
	r := b.I()
	b.MovI(r, 1)
	k := b.Build("noexit")
	if k.Instrs[len(k.Instrs)-1].Op != OpExit {
		t.Fatal("Build did not append EXIT")
	}
}

func TestLocalMemory(t *testing.T) {
	b := NewBuilder()
	b.SetLocal(64)
	tid, base, addr, zero, v := b.I(), b.I(), b.I(), b.I(), b.I()
	b.Rd(tid, SpecTid)
	b.LdParamI(base, 0)
	b.MovI(zero, 0)
	// Local scratch: local[0] = tid*3, then read back.
	b.IMulI(v, tid, 3)
	b.St(I64, SpaceLocal, zero, 0, v)
	b.MovI(v, 0)
	b.Ld(v, I64, SpaceLocal, zero, 0)
	b.ShlI(addr, tid, 3)
	b.IAdd(addr, addr, base)
	b.St(I64, SpaceGlobal, addr, 0, v)
	k := b.Build("local")

	mem := NewMemory()
	out := mem.AllocGlobal(16 * 8)
	mem.SetParamI(0, int64(out))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: 16}, mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if got := mem.ReadI64(SpaceGlobal, out+uint64(i*8)); got != int64(i*3) {
			t.Fatalf("local[%d] = %d, want %d", i, got, i*3)
		}
	}
}

func TestSelAndPredicateLogic(t *testing.T) {
	b := NewBuilder()
	tid, base, addr, v, big := b.I(), b.I(), b.I(), b.I(), b.I()
	p1, p2, both := b.P(), b.P(), b.P()
	b.Rd(tid, SpecTid)
	b.LdParamI(base, 0)
	b.MovI(big, 999)
	b.SetpII(p1, CmpGE, tid, 4)
	b.SetpII(p2, CmpLT, tid, 12)
	b.PAnd(both, p1, p2)
	b.SelI(v, both, big, tid) // v = (4<=tid<12) ? 999 : tid
	b.ShlI(addr, tid, 3)
	b.IAdd(addr, addr, base)
	b.St(I64, SpaceGlobal, addr, 0, v)
	k := b.Build("sel")

	mem := NewMemory()
	out := mem.AllocGlobal(16 * 8)
	mem.SetParamI(0, int64(out))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: 16}, mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		want := int64(i)
		if i >= 4 && i < 12 {
			want = 999
		}
		if got := mem.ReadI64(SpaceGlobal, out+uint64(i*8)); got != want {
			t.Fatalf("sel[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestQuickIntALUMatchesGo property-checks the integer ALU against Go
// semantics for random inputs.
func TestQuickIntALUMatchesGo(t *testing.T) {
	run := func(op Op, a, s int64) int64 {
		b := NewBuilder()
		ra, rs, rd, base := b.I(), b.I(), b.I(), b.I()
		b.MovI(ra, a)
		b.MovI(rs, s)
		b.emit(Instr{Op: op, Dst: int(rd), Src1: int(ra), Src2: int(rs)})
		b.LdParamI(base, 0)
		b.St(I64, SpaceGlobal, base, 0, rd)
		k := b.Build("quick")
		mem := NewMemory()
		out := mem.AllocGlobal(8)
		mem.SetParamI(0, int64(out))
		var ex Functional
		if err := ex.Launch(k, Launch{Grid: 1, Block: 1}, mem); err != nil {
			t.Fatal(err)
		}
		return mem.ReadI64(SpaceGlobal, out)
	}
	f := func(a, s int64) bool {
		if run(OpIAdd, a, s) != a+s {
			return false
		}
		if run(OpISub, a, s) != a-s {
			return false
		}
		if run(OpIMul, a, s) != a*s {
			return false
		}
		if s != 0 && run(OpIDiv, a, s) != a/s {
			return false
		}
		if run(OpIAnd, a, s) != a&s {
			return false
		}
		if run(OpIXor, a, s) != a^s {
			return false
		}
		if run(OpIMin, a, s) != min(a, s) {
			return false
		}
		return run(OpIMax, a, s) == max(a, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDivergenceMatchesScalar property-checks that a divergent warp
// computes the same result as a scalar reference, for random thresholds.
func TestQuickDivergenceMatchesScalar(t *testing.T) {
	f := func(thresh uint8) bool {
		th := int64(thresh % 64)
		b := NewBuilder()
		tid, base, addr, v := b.I(), b.I(), b.I(), b.I()
		p := b.P()
		b.Rd(tid, SpecTid)
		b.LdParamI(base, 0)
		b.SetpII(p, CmpLT, tid, th)
		b.If(p, func() {
			j := b.I()
			b.MovI(v, 0)
			b.For(j, 0, tid, 1, func() {
				b.IAddI(v, v, 2)
			})
		}, func() {
			b.IMulI(v, tid, -1)
		})
		b.ShlI(addr, tid, 3)
		b.IAdd(addr, addr, base)
		b.St(I64, SpaceGlobal, addr, 0, v)
		k := b.Build("qdiv")

		mem := NewMemory()
		out := mem.AllocGlobal(64 * 8)
		mem.SetParamI(0, int64(out))
		var ex Functional
		if err := ex.Launch(k, Launch{Grid: 1, Block: 64}, mem); err != nil {
			return false
		}
		for i := int64(0); i < 64; i++ {
			want := -i
			if i < th {
				want = 2 * i
			}
			if mem.ReadI64(SpaceGlobal, out+uint64(i*8)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWarpStepReporting(t *testing.T) {
	// Verify Step carries correct active counts and memory accesses.
	b := NewBuilder()
	tid, base, addr := b.I(), b.I(), b.I()
	p := b.P()
	b.Rd(tid, SpecTid)
	b.LdParamI(base, 0)
	b.SetpII(p, CmpLT, tid, 8)
	b.If(p, func() {
		b.ShlI(addr, tid, 2)
		b.IAdd(addr, addr, base)
		b.St(I32, SpaceGlobal, addr, 0, tid)
	}, nil)
	k := b.Build("stepinfo")

	mem := NewMemory()
	out := mem.AllocGlobal(32 * 4)
	mem.SetParamI(0, int64(out))

	cta := MakeCTA(k, 0, Launch{Grid: 1, Block: 32}, mem)
	w := cta.Warps[0]
	var storeStep *Step
	var st Step
	for !w.Done() {
		if err := w.Exec(cta.Env, &st); err != nil {
			t.Fatal(err)
		}
		if st.Instr != nil && st.Instr.Op == OpSt {
			s := st
			storeStep = &s
		}
	}
	if storeStep == nil {
		t.Fatal("no store step observed")
	}
	if storeStep.ActiveCount != 8 {
		t.Fatalf("store active count = %d, want 8", storeStep.ActiveCount)
	}
	if len(storeStep.Accesses) != 8 {
		t.Fatalf("store accesses = %d, want 8", len(storeStep.Accesses))
	}
	if size := storeStep.Instr.MType.Size(); size != 4 {
		t.Fatalf("store width = %d bytes, want 4", size)
	}
	for i, a := range storeStep.Accesses {
		if a.Lane != i || a.Addr != out+uint64(4*i) {
			t.Fatalf("access %d = %+v, want lane %d at %#x", i, a, i, out+uint64(4*i))
		}
	}
}

func TestPartialTrailingWarp(t *testing.T) {
	// Block of 40 threads: one full warp plus a partial warp of 8.
	b := NewBuilder()
	tid, base, addr := b.I(), b.I(), b.I()
	b.Rd(tid, SpecTid)
	b.LdParamI(base, 0)
	b.ShlI(addr, tid, 2)
	b.IAdd(addr, addr, base)
	b.St(I32, SpaceGlobal, addr, 0, tid)
	k := b.Build("partial")

	mem := NewMemory()
	out := mem.AllocGlobal(40 * 4)
	mem.SetParamI(0, int64(out))
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: 40}, mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if got := mem.ReadI32(SpaceGlobal, out+uint64(i*4)); got != int32(i) {
			t.Fatalf("out[%d] = %d, want %d", i, got, i)
		}
	}
}

func TestKernelResourceAccounting(t *testing.T) {
	b := NewBuilder()
	b.SetShared(4096)
	_ = b.I()
	_ = b.I()
	_ = b.F()
	_ = b.P()
	k := b.Build("res")
	if k.NumI != 2 || k.NumF != 1 || k.NumP != 1 {
		t.Fatalf("virtual register counts = %d/%d/%d", k.NumI, k.NumF, k.NumP)
	}
	// None of the registers is ever touched, so the physical demand is 0.
	if k.Regs() != 0 {
		t.Fatalf("Regs() = %d, want 0 for untouched registers", k.Regs())
	}
	if k.SharedBytes != 4096 {
		t.Fatalf("SharedBytes = %d", k.SharedBytes)
	}
}

func TestPhysicalRegisterPressure(t *testing.T) {
	// Three values live simultaneously, reusing many short-lived temps.
	b := NewBuilder()
	x, y, z := b.I(), b.I(), b.I()
	b.MovI(x, 1)
	b.MovI(y, 2)
	b.MovI(z, 3)
	sum := b.I()
	b.IAdd(sum, x, y)
	b.IAdd(sum, sum, z)
	// Many disjoint short-lived temporaries must not inflate the count.
	for i := 0; i < 50; i++ {
		tmp := b.I()
		b.MovI(tmp, int64(i))
		b.IAdd(tmp, tmp, tmp)
	}
	k := b.Build("pressure")
	if k.NumI != 4+50 {
		t.Fatalf("NumI = %d", k.NumI)
	}
	if k.PhysI < 3 || k.PhysI > 6 {
		t.Fatalf("PhysI = %d, want a small peak (3-6)", k.PhysI)
	}
}

func TestPhysicalRegsLiveAcrossLoop(t *testing.T) {
	// A value defined before a loop and used after it must stay allocated
	// through the loop body.
	b := NewBuilder()
	keep := b.I()
	b.MovI(keep, 42)
	i := b.I()
	b.ForI(i, 0, 10, 1, func() {
		t1 := b.I()
		t2 := b.I()
		b.MovI(t1, 1)
		b.MovI(t2, 2)
		b.IAdd(t1, t1, t2)
	})
	out := b.I()
	b.IAdd(out, keep, keep)
	k := b.Build("loopalloc")
	// keep, i, t1, t2 (+ out overlapping keep) => at least 4 live inside
	// the loop.
	if k.PhysI < 4 {
		t.Fatalf("PhysI = %d, want >= 4 (value live across loop)", k.PhysI)
	}
}

func TestOpClass(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{OpIAdd, ClassALU}, {OpFMA, ClassALU}, {OpFSqrt, ClassSFU},
		{OpFDiv, ClassSFU}, {OpLd, ClassMem}, {OpStF, ClassMem},
		{OpAtom, ClassMem}, {OpBra, ClassCtl}, {OpBar, ClassBar},
		{OpExit, ClassExit}, {OpSetpF, ClassALU},
	}
	for _, c := range cases {
		if got := c.op.Class(); got != c.want {
			t.Errorf("%v class = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestMemoryAllocatorAlignment(t *testing.T) {
	mem := NewMemory()
	a := mem.AllocGlobal(10)
	c := mem.AllocGlobal(10)
	if a%allocAlign != 0 || c%allocAlign != 0 {
		t.Fatalf("allocations not aligned: %d %d", a, c)
	}
	if c <= a {
		t.Fatalf("allocations overlap: %d %d", a, c)
	}
	mem.WriteI64(SpaceGlobal, a, 42)
	mem.WriteI64(SpaceGlobal, c, 43)
	if mem.ReadI64(SpaceGlobal, a) != 42 || mem.ReadI64(SpaceGlobal, c) != 43 {
		t.Fatal("allocator corrupted data")
	}
}

func TestBarrierUnderDivergentGuard(t *testing.T) {
	// Barrier arrival is per-warp (as on Kepler-and-later hardware):
	// a barrier under a divergent guard marks the whole warp as arrived,
	// and warps that exit without reaching the barrier do not block it.
	// The kernel below must therefore complete.
	b := NewBuilder()
	tid := b.I()
	p := b.P()
	b.Rd(tid, SpecTid)
	b.SetpII(p, CmpLT, tid, 8)
	b.If(p, func() {
		b.Bar()
	}, nil)
	k := b.Build("divbar")
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 1, Block: 64}, NewMemory()); err != nil {
		t.Fatalf("divergent barrier did not complete: %v", err)
	}
}

func TestFunctionalStepCounter(t *testing.T) {
	b := NewBuilder()
	r := b.I()
	b.MovI(r, 1)
	b.IAddI(r, r, 1)
	k := b.Build("count")
	var ex Functional
	if err := ex.Launch(k, Launch{Grid: 2, Block: 32}, NewMemory()); err != nil {
		t.Fatal(err)
	}
	// 3 instructions (movi, iadd, exit) x 2 warps.
	if ex.Steps != 6 {
		t.Fatalf("Steps = %d, want 6", ex.Steps)
	}
}
