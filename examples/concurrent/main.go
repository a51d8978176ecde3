// concurrent: simultaneous kernel execution, the suite feature the paper's
// Section VII announces.
//
// Two hand-written kernels — a latency-bound pointer chase and a
// compute-bound FMA chain — run back to back and then concurrently on the
// same simulated GPU. The per-kernel statistics show the chase's idle
// issue slots absorbing the compute kernel's warps.
//
//	go run ./examples/concurrent
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/gpusim"
	"repro/internal/isa"
)

// chaseKernel builds a dependent pointer chase: one load feeds the next.
func chaseKernel() (*isa.Kernel, *isa.Memory) {
	b := isa.NewBuilder()
	cur, it := b.I(), b.I()
	b.LdParamI(cur, 0)
	b.ForI(it, 0, 128, 1, func() {
		b.Ld(cur, isa.I64, isa.SpaceGlobal, cur, 0)
	})
	k := b.Build("pointer_chase")

	mem := isa.NewMemory()
	const nodes = 8192
	base := mem.AllocGlobal(nodes * 8)
	for i := 0; i < nodes; i++ {
		next := (i*2654435761 + 13) % nodes
		mem.WriteI64(isa.SpaceGlobal, base+uint64(i*8), int64(base+uint64(next*8)))
	}
	mem.SetParamI(0, int64(base))
	return k, mem
}

// fmaKernel builds a dense arithmetic chain.
func fmaKernel() (*isa.Kernel, *isa.Memory) {
	b := isa.NewBuilder()
	x, y := b.F(), b.F()
	b.MovF(x, 1.5)
	b.MovF(y, 0.25)
	for i := 0; i < 384; i++ {
		b.FMA(x, x, y, y)
	}
	return b.Build("fma_chain"), isa.NewMemory()
}

func main() {
	cfg := gpusim.Base8SM()
	chase, chaseMem := chaseKernel()
	fma, fmaMem := fmaKernel()
	launch := isa.Launch{Grid: 16, Block: 128}

	// Serial baseline.
	serial, err := gpusim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := serial.Launch(chase, launch, chaseMem); err != nil {
		log.Fatal(err)
	}
	if err := serial.Launch(fma, launch, fmaMem); err != nil {
		log.Fatal(err)
	}
	if err := serial.Wait(); err != nil {
		log.Fatal(err)
	}

	// Concurrent run (fresh memory for the chase).
	chase2, chaseMem2 := chaseKernel()
	fma2, fmaMem2 := fmaKernel()
	conc, err := gpusim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := conc.LaunchConcurrent([]gpusim.LaunchSpec{
		{Kernel: chase2, Launch: launch, Mem: chaseMem2},
		{Kernel: fma2, Launch: launch, Mem: fmaMem2},
	}); err != nil {
		log.Fatal(err)
	}
	if err := conc.Wait(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("serial sum:          %d cycles\n", serial.Stats.Cycles)
	fmt.Printf("concurrent makespan: %d cycles (%.2fx device throughput)\n",
		conc.Stats.Cycles, float64(serial.Stats.Cycles)/float64(conc.Stats.Cycles))
	fmt.Println("\nper-kernel statistics of the concurrent run:")
	names := make([]string, 0, len(conc.Stats.PerKernel))
	for name := range conc.Stats.PerKernel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pk := conc.Stats.PerKernel[name]
		fmt.Printf("  %-14s instrs=%-9d IPC=%.1f\n", name, pk.ThreadInstrs, pk.IPC())
	}

	fmt.Println("\nthe pointer-chase kernel, disassembled (first lines):")
	lines := 0
	for _, line := range splitLines(isa.Disassemble(chase)) {
		fmt.Println(" ", line)
		lines++
		if lines > 10 {
			fmt.Println("  ...")
			break
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
