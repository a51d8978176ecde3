package gpusim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/isa"
)

// runAheadWords is the size of runAheadKernel's global arena in words:
// 128 lines of 64 bytes, so both CTA groups keep landing on each other's
// lines.
const runAheadWords = 2048

// runAheadKernel splits its CTAs into two groups by index. 12 kB of
// shared memory keep two CTAs to an SM on the paper baseline, so the
// initial fill gives even SMs the first group and odd SMs the second.
// The first group runs a long SM-local stretch — shared stores and loads
// at a bank-conflicting stride, ALU and SFU work, a barrier — whose trip
// count grows with the warp index, then reads and writes back one
// global word per thread. The second loops over global loads and stores
// spread over the same arena, one more trip per warp, and each thread
// adds one to a global counter. So the caches, the DRAM queues, the
// sharing tracker and CTA dispatch see the two groups' steps
// interleaved, and warps of one CTA exit at different cycles.
func runAheadKernel() *isa.Kernel {
	b := isa.NewBuilder()
	b.SetShared(12 * 1024)
	tid, cta, warp, base, grp, g, v, it, n := b.I(), b.I(), b.I(), b.I(), b.I(), b.I(), b.I(), b.I(), b.I()
	p := b.P()
	b.Rd(tid, isa.SpecTid)
	b.Rd(cta, isa.SpecCta)
	b.LdParamI(base, 0)
	b.ShrI(warp, tid, 5)
	b.ShrI(grp, cta, 1)
	b.IAndI(grp, grp, 1)
	b.SetpII(p, isa.CmpEQ, grp, 0)
	b.If(p, func() {
		saddr := b.I()
		f := b.F()
		b.ShlI(saddr, tid, 5) // 8-word stride: 8-way bank conflicts
		b.I2F(f, tid)
		b.IAddI(n, warp, 4)
		b.ShlI(n, n, 2)
		b.For(it, 0, n, 1, func() {
			b.St(isa.I32, isa.SpaceShared, saddr, 0, it)
			b.Ld(v, isa.I32, isa.SpaceShared, saddr, 0)
			b.IAdd(v, v, tid)
			b.Sqrt(f, f)
			b.FAddI(f, f, 1)
		})
		b.Bar()
		b.IMulI(g, cta, 37)
		b.IAdd(g, g, tid)
		b.IRemI(g, g, runAheadWords)
		b.ShlI(g, g, 2)
		b.IAdd(g, g, base)
		b.Ld(v, isa.I32, isa.SpaceGlobal, g, 0)
		b.IAdd(v, v, tid)
		b.St(isa.I32, isa.SpaceGlobal, g, 0, v)
	}, func() {
		cnt, one := b.I(), b.I()
		b.IAddI(n, warp, 3)
		b.For(it, 0, n, 1, func() {
			b.IMulI(g, it, 613)
			b.IAdd(g, g, tid)
			b.IMulI(v, cta, 97)
			b.IAdd(g, g, v)
			b.IRemI(g, g, runAheadWords)
			b.ShlI(g, g, 2)
			b.IAdd(g, g, base)
			b.Ld(v, isa.I32, isa.SpaceGlobal, g, 0)
			b.IAddI(v, v, 1)
			b.St(isa.I32, isa.SpaceGlobal, g, 0, v)
		})
		b.IAddI(cnt, base, runAheadWords*4)
		b.MovI(one, 1)
		b.AtomAdd(v, isa.SpaceGlobal, cnt, 0, one)
	})
	return b.Build("runahead")
}

// runAheadMemory returns a fresh arena for runAheadKernel.
func runAheadMemory() *isa.Memory {
	mem := isa.NewMemory()
	base := mem.AllocGlobal(runAheadWords*4 + 4)
	mem.SetParamI(0, int64(base))
	return mem
}

// TestRunAheadOrder pins the event loop's ordering of global steps: SMs
// run ahead on their own state between them, so a step priced ahead of
// the clock, or out of SM index order within a cycle, or a CTA
// completion treated as SM-local work, would reorder cache, DRAM-queue,
// sharing-tracker or dispatch state. runAheadKernel makes each of those
// orders matter. Every leg's Stats must hash to its pin, taken from the
// loop that visited every SM at every cycle it could issue at. The legs:
// the paper baseline; GTX480 with its L1; one DRAM channel with a
// one-byte bus, whose queues grow deep; a DRAM latency beyond the wake
// wheel's span, so SMs wait in its far set; and a concurrent launch with
// a vector add, whose CTA refills interleave with runAheadKernel's.
func TestRunAheadOrder(t *testing.T) {
	narrow := Base()
	narrow.Name = "narrow-dram"
	narrow.MemChannels, narrow.DRAMBusBytes = 1, 1
	far := Base()
	far.Name = "far-dram"
	far.DRAMLatency = 3 * wheelSlots / 2
	single := func(g *GPU) error {
		return g.Launch(runAheadKernel(), isa.Launch{Grid: 150, Block: 128}, runAheadMemory())
	}
	legs := []struct {
		name   string
		cfg    Config
		launch func(*GPU) error
		pin    string
	}{
		{"base", Base(), single, "d7917795c63352359500c92bb31a3b1c95c4fdcfd8e9697cb379e35323601f1c"},
		{"gtx480-l1", GTX480(L1Bias), single, "fce852410e62b9d3f3b676621076d994ca09aae87d32fc4ceecddb17d4dd2573"},
		{"narrow-dram", narrow, single, "fe3167ea5dc55eac41db7a80606f81209da6f3f15de85bae79a3de2ef542083d"},
		{"far-dram", far, single, "1d9e9134bd2b84287cc9d7417640174844219a7a5d6b638316d33fe8d08e565d"},
		{"concurrent", Base8SM(), func(g *GPU) error {
			memV, _ := setupVecAdd(8192)
			return g.LaunchConcurrent([]LaunchSpec{
				{Kernel: runAheadKernel(), Launch: isa.Launch{Grid: 60, Block: 128}, Mem: runAheadMemory()},
				{Kernel: vecAddKernel(), Launch: isa.Launch{Grid: 32, Block: 256}, Mem: memV},
			})
		}, "851d3795f6dd34e453ab77fdd291199ad3c9f49644402aa28e54158cff85180d"},
	}
	for _, leg := range legs {
		g, err := New(leg.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := leg.launch(g); err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		wait(t, g)
		sum := sha256.Sum256([]byte(statsJSON(t, g.Stats)))
		if got := hex.EncodeToString(sum[:]); got != leg.pin {
			t.Errorf("%s: Stats hash %s, pinned %s", leg.name, got, leg.pin)
		}
	}
}
