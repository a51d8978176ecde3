package gpusim

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// genKernel builds a random race-free kernel from a seed: a mix of ALU
// chains, divergent guards, loops, shared-memory staging with barriers,
// and a final per-thread store. Because every shared/global write goes to
// a thread-owned slot, the functional executor and the timing simulator
// must produce bit-identical memory regardless of scheduling.
func genKernel(seed uint64) *isa.Kernel {
	rng := seed*2862933555777941757 + 3037000493
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 17) % uint64(n))
	}
	b := isa.NewBuilder()
	const block = 96
	b.SetShared(block * 8)

	tid, cta, gid, ntid := b.I(), b.I(), b.I(), b.I()
	b.Rd(tid, isa.SpecTid)
	b.Rd(cta, isa.SpecCta)
	b.Rd(ntid, isa.SpecNTid)
	b.IMul(gid, cta, ntid)
	b.IAdd(gid, gid, tid)
	base := b.I()
	b.LdParamI(base, 0)

	acc := b.I()
	b.Mov(acc, gid)
	x := b.F()
	b.I2F(x, gid)

	saddr := b.I()
	b.ShlI(saddr, tid, 3)

	stmts := 4 + next(6)
	for s := 0; s < stmts; s++ {
		switch next(6) {
		case 0: // integer ALU chain
			for i := 0; i < 1+next(4); i++ {
				switch next(5) {
				case 0:
					b.IAddI(acc, acc, int64(next(100)))
				case 1:
					b.IMulI(acc, acc, int64(1+next(5)))
				case 2:
					b.IXor(acc, acc, tid)
				case 3:
					b.IAndI(acc, acc, 0xffff)
				default:
					b.IMaxI(acc, acc, int64(next(50)))
				}
			}
		case 1: // float chain
			b.FAddI(x, x, float64(next(10)))
			b.FMulI(x, x, 1.5)
			b.FAbs(x, x)
		case 2: // divergent guard
			p := b.P()
			b.SetpII(p, isa.CmpLT, tid, int64(1+next(block)))
			b.If(p, func() {
				b.IAddI(acc, acc, 7)
			}, func() {
				b.ISubI(acc, acc, 3)
			})
		case 3: // small loop with thread-dependent trip count
			i := b.I()
			bound := b.I()
			b.IAndI(bound, tid, int64(1|next(15)))
			b.For(i, 0, bound, 1, func() {
				b.IAdd(acc, acc, i)
			})
		case 4: // shared staging with a barrier, reading a neighbor slot
			b.St(isa.I64, isa.SpaceShared, saddr, 0, acc)
			b.Bar()
			nb := b.I()
			b.IAddI(nb, tid, int64(1+next(7)))
			b.IRemI(nb, nb, block)
			b.ShlI(nb, nb, 3)
			v := b.I()
			b.Ld(v, isa.I64, isa.SpaceShared, nb, 0)
			b.IAdd(acc, acc, v)
			b.Bar()
		default: // global gather from a bounded random slot
			idx := b.I()
			b.IMulI(idx, gid, int64(1+next(13)))
			b.IRemI(idx, idx, 512)
			b.ShlI(idx, idx, 3)
			b.IAdd(idx, idx, base)
			v := b.I()
			b.Ld(v, isa.I64, isa.SpaceGlobal, idx, 4096*8)
			b.IAdd(acc, acc, v)
		}
	}
	// acc += int(x); out[gid] = acc
	xi := b.I()
	b.F2I(xi, x)
	b.IAdd(acc, acc, xi)
	out := b.I()
	b.ShlI(out, gid, 3)
	b.IAdd(out, out, base)
	b.St(isa.I64, isa.SpaceGlobal, out, 0, acc)
	return b.Build("differential")
}

// runBoth executes the kernel on the functional executor and on a random
// simulated GPU configuration, returning both output arrays.
func runBoth(t *testing.T, k *isa.Kernel, seed uint64) ([]int64, []int64) {
	t.Helper()
	// The lookup table lives at out+4096*8; size the arena accordingly.
	setup := func() (*isa.Memory, uint64) {
		mem := isa.NewMemory()
		out := mem.AllocGlobal(4096*8 + 512*8)
		for i := 0; i < 512; i++ {
			mem.WriteI64(isa.SpaceGlobal, out+4096*8+uint64(i*8), int64(i*37))
		}
		mem.SetParamI(0, int64(out))
		return mem, out
	}

	memF, outF := setup()
	var fe isa.Functional
	if err := fe.Launch(k, isa.Launch{Grid: 4, Block: 96}, memF); err != nil {
		t.Fatalf("functional: %v", err)
	}

	cfg := Base8SM()
	// Vary timing-relevant parameters with the seed; none may change
	// results.
	switch seed % 4 {
	case 0:
		cfg.SIMDWidth = 8
	case 1:
		cfg.MemChannels = 4
	case 2:
		cfg.L1CacheKB = 16
		cfg.L2CacheKB = 256
	default:
		cfg.BankConflicts = false
	}
	memT, outT := setup()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Launch(k, isa.Launch{Grid: 4, Block: 96}, memT); err != nil {
		t.Fatalf("timing: %v", err)
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("timing: %v", err)
	}

	read := func(mem *isa.Memory, out uint64) []int64 {
		vals := make([]int64, 4*96)
		for i := range vals {
			vals[i] = mem.ReadI64(isa.SpaceGlobal, out+uint64(i*8))
		}
		return vals
	}
	return read(memF, outF), read(memT, outT)
}

// TestQuickDifferentialExecution: for random kernels and random timing
// configurations, the timing simulator's functional results match the
// reference executor exactly.
func TestQuickDifferentialExecution(t *testing.T) {
	f := func(seed uint16) bool {
		k := genKernel(uint64(seed))
		a, b := runBoth(t, k, uint64(seed))
		for i := range a {
			if a[i] != b[i] {
				t.Logf("seed %d: out[%d] = %d (functional) vs %d (timing)", seed, i, a[i], b[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
