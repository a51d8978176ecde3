// Package gpusim is a cycle-level SIMT GPU timing simulator in the mold of
// GPGPU-Sim. It executes kernels written in the internal/isa virtual ISA
// and reports the characterization metrics used throughout the paper:
// IPC, warp-occupancy histograms, memory-instruction mix, DRAM bandwidth
// utilization and cache statistics.
//
// The model is functional-first: each kernel executes on a producer
// goroutine (internal/isa's interpreter), which records every warp's
// instruction stream CTA by CTA, and the cycle-level event loop replays
// those streams as they arrive — the same loop, on the same replay
// warps, that a stored trace drives. When the warp scheduler issues a
// recorded instruction, its timing cost (issue slots, latency, memory
// transactions) is charged to the pipeline, the shared-memory banks, the
// caches and the DRAM channels.
package gpusim

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Config describes a simulated GPU. The zero value is not usable; start
// from one of the preset configurations.
type Config struct {
	Name string

	// Core organization.
	NumSMs        int // streaming multiprocessors ("shader cores")
	SIMDWidth     int // lanes issued per cycle; a 32-thread warp needs 32/SIMDWidth cycles
	MaxThreads    int // thread contexts per SM
	MaxCTAs       int // concurrent CTAs per SM
	Registers     int // registers per SM
	SharedMemory  int // shared memory bytes per SM
	SharedBanks   int // shared memory banks
	BankConflicts bool
	// NoCoalescing disables the per-warp memory coalescer (an ablation
	// knob: every active lane issues its own DRAM transaction).
	NoCoalescing bool

	// Latencies in core cycles.
	ALULatency    int
	SFULatency    int
	SharedLatency int
	ConstLatency  int
	TexLatency    int
	ParamLatency  int
	DRAMLatency   int // fixed pipe latency added to every DRAM access
	L1Latency     int
	L2Latency     int

	// Clocks, used to derive per-core-cycle DRAM throughput.
	CoreClockMHz int
	MemClockMHz  int

	// Memory system.
	MemChannels  int // independent DRAM channels
	DRAMBusBytes int // bus width per channel in bytes (DDR: 2 transfers/clock)
	ConstCacheKB int // per-SM constant cache
	TexCacheKB   int // per-SM texture cache
	L1CacheKB    int // per-SM L1 data cache; 0 disables (pre-Fermi)
	L2CacheKB    int // device-wide unified L2; 0 disables (pre-Fermi)

	LineSize int // cache line / coalescing segment size in bytes

	// ShardWorkers and EpochCycles are ignored. They selected the
	// epoch-parallel engine, which is gone: every launch runs on the one
	// event loop (launch.go). They stay only because the benchmark
	// module (simbench) still sets them; Validate still bounds them and
	// store.StatsConfig still clears them, so store keys are unchanged.
	// They go with the next store.EncodingVersion bump.
	ShardWorkers int
	EpochCycles  int
}

// fieldBound is the accepted range of one integer Config field.
type fieldBound struct {
	name      string
	v, lo, hi int
}

// bounds lists the accepted ranges of Config's integer fields. The upper
// bounds sit far above every preset and every Plackett-Burman row; they
// exist so that a hostile configuration (a service request, say) cannot
// make New or a launch allocate or loop without bound. The bank model
// keeps per-bank scratch for at most 32 banks, one per lane.
func (c *Config) bounds() []fieldBound {
	return []fieldBound{
		{"NumSMs", c.NumSMs, 1, 1024},
		{"MaxThreads", c.MaxThreads, 1, 1 << 16},
		{"MaxCTAs", c.MaxCTAs, 1, 1024},
		{"Registers", c.Registers, 0, 1 << 24},
		{"SharedMemory", c.SharedMemory, 0, 1 << 24},
		{"SharedBanks", c.SharedBanks, 1, 32},
		{"ALULatency", c.ALULatency, 0, 1 << 20},
		{"SFULatency", c.SFULatency, 0, 1 << 20},
		{"SharedLatency", c.SharedLatency, 0, 1 << 20},
		{"ConstLatency", c.ConstLatency, 0, 1 << 20},
		{"TexLatency", c.TexLatency, 0, 1 << 20},
		{"ParamLatency", c.ParamLatency, 0, 1 << 20},
		{"DRAMLatency", c.DRAMLatency, 0, 1 << 20},
		{"L1Latency", c.L1Latency, 0, 1 << 20},
		{"L2Latency", c.L2Latency, 0, 1 << 20},
		{"CoreClockMHz", c.CoreClockMHz, 1, 1 << 20},
		{"MemClockMHz", c.MemClockMHz, 1, 1 << 20},
		{"MemChannels", c.MemChannels, 1, 1024},
		{"DRAMBusBytes", c.DRAMBusBytes, 1, 1 << 12},
		{"ConstCacheKB", c.ConstCacheKB, 0, 1 << 12},
		{"TexCacheKB", c.TexCacheKB, 0, 1 << 12},
		{"L1CacheKB", c.L1CacheKB, 0, 1 << 12},
		{"L2CacheKB", c.L2CacheKB, 0, 1 << 16},
		{"LineSize", c.LineSize, 4, 1 << 12},
		{"ShardWorkers", c.ShardWorkers, 0, 1024},
		{"EpochCycles", c.EpochCycles, 0, 1 << 20},
	}
}

// maxCacheLines bounds the cache lines New allocates across every SM's
// caches and the L2 (about 70 MiB of cache state). The presets need at
// most 28k.
const maxCacheLines = 1 << 22

// Validate reports configuration errors, including any field outside
// its bounds and caches whose lines exceed maxCacheLines in total.
func (c *Config) Validate() error {
	for _, b := range c.bounds() {
		if b.v < b.lo || b.v > b.hi {
			return fmt.Errorf("gpusim: %s = %d outside [%d, %d]", b.name, b.v, b.lo, b.hi)
		}
	}
	lines := (c.NumSMs*(c.ConstCacheKB+c.TexCacheKB+c.L1CacheKB) + c.L2CacheKB) * 1024 / c.LineSize
	switch {
	case c.SIMDWidth <= 0 || 32%c.SIMDWidth != 0:
		return fmt.Errorf("gpusim: SIMDWidth = %d must divide 32", c.SIMDWidth)
	case c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("gpusim: LineSize = %d must be a power of two", c.LineSize)
	case lines > maxCacheLines:
		return fmt.Errorf("gpusim: caches hold %d lines in total, limit %d", lines, maxCacheLines)
	}
	return nil
}

// CTAsPerSM computes how many CTAs of the kernel fit on one SM given the
// register, thread, shared-memory and CTA-slot budgets. Together with
// NumSMs it fully determines CTA→SM placement for a single-kernel
// launch.
func (c *Config) CTAsPerSM(k *isa.Kernel, block int) int {
	n := c.MaxCTAs
	if byThreads := c.MaxThreads / block; byThreads < n {
		n = byThreads
	}
	if perCTA := k.Regs() * block; perCTA > 0 {
		if byRegs := c.Registers / perCTA; byRegs < n {
			n = byRegs
		}
	}
	if k.SharedBytes > 0 {
		if byShared := c.SharedMemory / k.SharedBytes; byShared < n {
			n = byShared
		}
	}
	return n
}

// issueCycles is the number of issue slots one warp instruction occupies.
func (c *Config) issueCycles() uint64 { return uint64(32 / c.SIMDWidth) }

// dramBytesPerCoreCycle is a channel's throughput in bytes per core cycle
// (DDR transfers twice per memory clock).
func (c *Config) dramBytesPerCoreCycle() float64 {
	return float64(c.DRAMBusBytes) * 2 * float64(c.MemClockMHz) / float64(c.CoreClockMHz)
}

// Preset returns a preset configuration by its CLI name. The names are
// the ones cmd/rodiniasim and cmd/simd accept: base, base8, gtx280,
// gtx480-shared, gtx480-l1.
func Preset(name string) (Config, error) {
	switch name {
	case "base":
		return Base(), nil
	case "base8":
		return Base8SM(), nil
	case "gtx280":
		return GTX280(), nil
	case "gtx480-shared":
		return GTX480(SharedBias), nil
	case "gtx480-l1":
		return GTX480(L1Bias), nil
	}
	return Config{}, fmt.Errorf("gpusim: unknown config %q (want %s)", name, strings.Join(PresetNames(), ", "))
}

// PresetNames lists the Preset names in CLI help order.
func PresetNames() []string {
	return []string{"base", "base8", "gtx280", "gtx480-shared", "gtx480-l1"}
}

// Base returns the paper's Table II GPGPU-Sim configuration: 28 SMs,
// 32-wide SIMD, 1024 threads and 8 CTAs per SM, 16384 registers, 32 kB
// shared memory, 8 memory channels, no L1/L2 (the paper's simulations did
// not use an L2 cache).
func Base() Config {
	return Config{
		Name:          "gpgpusim-28sm",
		NumSMs:        28,
		SIMDWidth:     32,
		MaxThreads:    1024,
		MaxCTAs:       8,
		Registers:     16384,
		SharedMemory:  32 * 1024,
		SharedBanks:   16,
		BankConflicts: true,
		ALULatency:    4,
		SFULatency:    16,
		SharedLatency: 24,
		ConstLatency:  8,
		TexLatency:    40,
		ParamLatency:  4,
		DRAMLatency:   220,
		L1Latency:     28,
		L2Latency:     120,
		CoreClockMHz:  2000,
		MemClockMHz:   1000,
		MemChannels:   8,
		DRAMBusBytes:  16,
		ConstCacheKB:  8,
		TexCacheKB:    8,
		LineSize:      64,
	}
}

// Base8SM is the 8-shader configuration of Figure 1.
func Base8SM() Config {
	c := Base()
	c.Name = "gpgpusim-8sm"
	c.NumSMs = 8
	return c
}

// GTX280 approximates NVIDIA's GT200 part used as the Figure 5 baseline:
// 30 SMs of 8 SPs (SIMD width 8), 16 kB shared memory, 16384 registers,
// no L1/L2 data caches.
func GTX280() Config {
	c := Base()
	c.Name = "gtx280"
	c.NumSMs = 30
	c.SIMDWidth = 8
	c.SharedMemory = 16 * 1024
	c.CoreClockMHz = 1300
	c.MemClockMHz = 1100
	c.MemChannels = 8
	c.DRAMBusBytes = 8
	return c
}

// FermiBias selects the GTX480 on-chip memory split of Figure 5.
type FermiBias int

// Fermi on-chip memory configurations (cudaFuncSetCacheConfig).
const (
	// SharedBias is 48 kB shared memory + 16 kB L1 (the default).
	SharedBias FermiBias = iota
	// L1Bias is 16 kB shared memory + 48 kB L1.
	L1Bias
)

func (b FermiBias) String() string {
	if b == L1Bias {
		return "L1-bias"
	}
	return "shared-bias"
}

// GTX480 approximates the Fermi part of Figure 5: 15 SMs with 32 lanes,
// a configurable 64 kB shared/L1 split, and a 768 kB unified L2 that
// services loads, stores and texture fetches.
func GTX480(bias FermiBias) Config {
	c := Base()
	c.Name = "gtx480-" + bias.String()
	c.NumSMs = 15
	c.SIMDWidth = 32
	c.MaxThreads = 1536
	c.Registers = 32768
	c.SharedBanks = 32
	c.CoreClockMHz = 1400
	c.MemClockMHz = 1850
	c.MemChannels = 6
	c.DRAMBusBytes = 8
	c.L2CacheKB = 768
	if bias == L1Bias {
		c.SharedMemory = 16 * 1024
		c.L1CacheKB = 48
	} else {
		c.SharedMemory = 48 * 1024
		c.L1CacheKB = 16
	}
	return c
}
