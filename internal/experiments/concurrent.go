package experiments

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/report"
)

// The paper lists "simultaneous kernel execution" as a planned suite
// feature. This experiment demonstrates the simulator's concurrent-kernel
// support: a warp-starved, latency-bound benchmark (MUMmer) co-scheduled
// with a compute-bound one (HotSpot) finishes earlier than running the two
// back to back, because MUMmer's idle issue slots are filled by HotSpot's
// warps.

// captureExec records launches without executing them, for benchmarks
// whose host code performs no data-dependent work between launches.
type captureExec struct {
	specs []gpusim.LaunchSpec
}

var _ isa.Executor = (*captureExec)(nil)

func (c *captureExec) Launch(k *isa.Kernel, launch isa.Launch, mem *isa.Memory) error {
	c.specs = append(c.specs, gpusim.LaunchSpec{Kernel: k, Launch: launch, Mem: mem})
	return nil
}

func (c *captureExec) Wait() error { return nil }

var expConcurrent = &Experiment{
	ID:    "conc",
	Title: "Future work: simultaneous kernel execution",
	Run: func(ctx *Context) (*Result, error) {
		// MUM and HS are single-launch benchmarks (no host work between
		// launches), so their launches can be captured and replayed
		// concurrently.
		mum, _ := kernels.ByAbbrev("MUM")
		hs, _ := kernels.ByAbbrev("HS")
		mumIn := mum.Instance()
		hsIn := hs.Instance()
		var cap captureExec
		if err := mumIn.Run(&cap); err != nil {
			return nil, err
		}
		if err := hsIn.Run(&cap); err != nil {
			return nil, err
		}
		if len(cap.specs) != 2 {
			return nil, fmt.Errorf("experiments: expected 2 captured launches, have %d", len(cap.specs))
		}

		cfg := gpusim.Base()
		// Serial: each kernel alone on a fresh device (fresh instances so
		// memory state is untouched).
		serialCycles := uint64(0)
		perKernel := map[string]uint64{}
		for _, b := range []*kernels.Benchmark{mum, hs} {
			in := b.Instance()
			g, err := gpusim.New(cfg)
			if err != nil {
				return nil, err
			}
			if err := in.Run(g); err != nil {
				return nil, err
			}
			serialCycles += g.Stats.Cycles
			perKernel[b.Abbrev] = g.Stats.Cycles
		}

		// Concurrent: both kernels share the device.
		g, err := gpusim.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := g.LaunchConcurrent(cap.specs); err != nil {
			return nil, err
		}
		if err := g.Wait(); err != nil {
			return nil, err
		}
		concCycles := g.Stats.Cycles
		// The concurrent run executed against the captured instances'
		// memory: validate both benchmarks' results.
		if err := mumIn.Check(); err != nil {
			return nil, fmt.Errorf("experiments: MUM failed validation after concurrent run: %w", err)
		}
		if err := hsIn.Check(); err != nil {
			return nil, fmt.Errorf("experiments: HS failed validation after concurrent run: %w", err)
		}

		speedup := float64(serialCycles) / float64(concCycles)
		rows := [][]string{
			{"MUM alone", fmt.Sprint(perKernel["MUM"])},
			{"HS alone", fmt.Sprint(perKernel["HS"])},
			{"serial sum", fmt.Sprint(serialCycles)},
			{"concurrent makespan", fmt.Sprint(concCycles)},
			{"throughput gain", fmt.Sprintf("%.2fx", speedup)},
		}
		notes := []string{
			note("Concurrent MUM+HS completes %.2fx faster than back-to-back execution; MUMmer's warp-starved SMs issue HotSpot warps while tree walks wait on memory.", speedup),
			note("Both benchmarks' device results validate against their CPU references after the concurrent run."),
		}
		return &Result{
			ID:    "conc",
			Title: "Simultaneous kernel execution (MUM + HS)",
			Text:  report.Table([]string{"Configuration", "Cycles"}, rows),
			Notes: notes,
		}, nil
	},
}
