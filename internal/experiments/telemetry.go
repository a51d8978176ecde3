package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Telemetry is the machine-readable per-run report cmd/experiments emits
// as results/telemetry.json (with a human rendering beside it as
// telemetry.txt): per-benchmark wall time and simulation throughput,
// trace-cache behavior, worker utilization, the GPU event loop's cycle
// accounting and the CPU pipeline's volume counters, plus the raw
// registry snapshot for anything the typed sections leave out.
type Telemetry struct {
	Size        string  `json:"size"`
	Workers     int     `json:"workers"`
	WallNs      uint64  `json:"wall_ns"`
	BusyNs      uint64  `json:"busy_ns"`
	Utilization float64 `json:"utilization"` // busy / (workers × wall)

	Experiments []ExpReport   `json:"experiments"`
	Benchmarks  []BenchReport `json:"benchmarks"`
	Trace       TraceCounters `json:"trace"`
	GPU         GPUReport     `json:"gpu"`
	CPU         CPUReport     `json:"cpu"`

	Metrics map[string]any `json:"metrics"`
}

// ExpReport is one experiment's outcome line.
type ExpReport struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	WallNs uint64 `json:"wall_ns"`
	Err    string `json:"err,omitempty"`
}

// BenchReport aggregates the executed GPU characterizations of one
// benchmark instance (benchmark @ size class) across all configurations:
// memoized requests served from the cache do not count.
type BenchReport struct {
	Bench        string  `json:"bench"`
	Runs         uint64  `json:"runs"`
	WallNs       uint64  `json:"wall_ns"`
	Cycles       uint64  `json:"cycles"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// SMReport is one simulated SM's cycle accounting. Cycles is the total
// simulated cycle count of the launches the SM took part in, and
// Busy+Idle == Cycles holds for every SM; when every launch of a run
// used the same SM count, Cycles also equals GPUReport.Cycles.
type SMReport struct {
	SM     int    `json:"sm"`
	Busy   uint64 `json:"busy"`
	Idle   uint64 `json:"idle"`
	Cycles uint64 `json:"cycles"`
}

// GPUReport is the timing core's aggregated telemetry.
type GPUReport struct {
	Cycles            uint64     `json:"cycles"`
	Launches          uint64     `json:"launches"`
	StallPortCycles   uint64     `json:"stall_port_cycles"`
	StallSkipCycles   uint64     `json:"stall_skip_cycles"`
	StallSchedCycles  uint64     `json:"stall_sched_cycles"`
	SkippedCycles     uint64     `json:"skipped_cycles"`
	DRAMAccesses      uint64     `json:"dram_accesses"`
	DRAMBacklogCycles uint64     `json:"dram_backlog_cycles"`
	BarrierWaitNs     uint64     `json:"barrier_wait_ns"`
	BarrierCrossings  uint64     `json:"barrier_crossings"`
	SMs               []SMReport `json:"sms"`
}

// CPUReport is the trace/cachesim pipeline's volume counters.
type CPUReport struct {
	Workloads     uint64 `json:"workloads"`
	TraceEvents   uint64 `json:"trace_events"`
	TraceBatches  uint64 `json:"trace_batches"`
	SweepAccesses uint64 `json:"sweep_accesses"`
	SweepProbes   uint64 `json:"sweep_probes"`
}

// BuildTelemetry assembles the report from the Context's registry, its
// trace counters and the runner's outcomes. It works — with empty typed
// sections — even when the Context ran without a registry.
func BuildTelemetry(c *Context, outcomes []Outcome) *Telemetry {
	counters := c.Obs.Counters()
	t := &Telemetry{
		Size:    c.Size.String(),
		WallNs:  counters["runner.wall_ns"],
		BusyNs:  counters["runner.busy_ns"],
		Trace:   c.TraceCounters(),
		Metrics: c.Obs.Snapshot(),
		GPU: GPUReport{
			Cycles:            counters["gpusim.cycles"],
			Launches:          counters["gpusim.launches"],
			StallPortCycles:   counters["gpusim.stall.port_cycles"],
			StallSkipCycles:   counters["gpusim.stall.skip_cycles"],
			StallSchedCycles:  counters["gpusim.stall.sched_cycles"],
			SkippedCycles:     counters["gpusim.clock.skipped_cycles"],
			DRAMAccesses:      counters["gpusim.dram.accesses"],
			DRAMBacklogCycles: counters["gpusim.dram.backlog_cycles"],
			BarrierWaitNs:     counters["gpusim.barrier.wait_ns"],
			BarrierCrossings:  counters["gpusim.barrier.crossings"],
		},
		CPU: CPUReport{
			Workloads:     counters["cpu.workloads"],
			TraceEvents:   counters["cpu.trace.events"],
			TraceBatches:  counters["cpu.trace.batches"],
			SweepAccesses: counters["cpu.sweep.accesses"],
			SweepProbes:   counters["cpu.sweep.probes"],
		},
	}
	if w := c.Obs.Gauges()["runner.workers"]; w > 0 {
		t.Workers = int(w)
	}
	if t.Workers > 0 && t.WallNs > 0 {
		t.Utilization = float64(t.BusyNs) / (float64(t.Workers) * float64(t.WallNs))
	}
	for _, o := range outcomes {
		er := ExpReport{ID: o.Experiment.ID, Title: o.Experiment.Title, WallNs: uint64(o.Elapsed)}
		if o.Err != nil {
			er.Err = o.Err.Error()
		}
		t.Experiments = append(t.Experiments, er)
	}

	byBench := make(map[string]*BenchReport)
	bench := func(id string) *BenchReport {
		b := byBench[id]
		if b == nil {
			b = &BenchReport{Bench: id}
			byBench[id] = b
		}
		return b
	}
	smBusy := make(map[int]uint64)
	smIdle := make(map[int]uint64)
	smCycles := make(map[int]uint64)
	for name, v := range counters {
		base, labels := obs.ParseName(name)
		switch base {
		case "exp.gpu.wall_ns":
			bench(labels["bench"]).WallNs += v
		case "exp.gpu.cycles":
			bench(labels["bench"]).Cycles += v
		case "exp.gpu.runs":
			bench(labels["bench"]).Runs += v
		case "gpusim.sm.busy_cycles":
			if sm, err := strconv.Atoi(labels["sm"]); err == nil {
				smBusy[sm] += v
			}
		case "gpusim.sm.idle_cycles":
			if sm, err := strconv.Atoi(labels["sm"]); err == nil {
				smIdle[sm] += v
			}
		case "gpusim.sm.cycles":
			if sm, err := strconv.Atoi(labels["sm"]); err == nil {
				smCycles[sm] += v
			}
		}
	}
	for _, b := range byBench {
		if b.WallNs > 0 {
			b.CyclesPerSec = float64(b.Cycles) / (float64(b.WallNs) / 1e9)
		}
		t.Benchmarks = append(t.Benchmarks, *b)
	}
	sort.Slice(t.Benchmarks, func(i, j int) bool { return t.Benchmarks[i].Bench < t.Benchmarks[j].Bench })
	for sm := range smCycles {
		t.GPU.SMs = append(t.GPU.SMs, SMReport{
			SM: sm, Busy: smBusy[sm], Idle: smIdle[sm], Cycles: smCycles[sm],
		})
	}
	sort.Slice(t.GPU.SMs, func(i, j int) bool { return t.GPU.SMs[i].SM < t.GPU.SMs[j].SM })
	return t
}

// JSON renders the report as indented JSON.
func (t *Telemetry) JSON() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// Render is the human-readable companion to JSON.
func (t *Telemetry) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: size=%s workers=%d wall=%.2fs busy=%.2fs utilization=%.1f%%\n",
		t.Size, t.Workers, float64(t.WallNs)/1e9, float64(t.BusyNs)/1e9, 100*t.Utilization)
	fmt.Fprintf(&b, "trace cache: %d captures, %d replays, %d evictions, %d uncacheable, %d bytes\n",
		t.Trace.Captures, t.Trace.Replays, t.Trace.Evictions, t.Trace.Uncacheable, t.Trace.Bytes)
	if t.GPU.Cycles > 0 {
		fmt.Fprintf(&b, "gpu: %d cycles over %d launches; stalls port=%d skip=%d sched=%d; clock skipped %d; dram %d accesses backlog %d cycles\n",
			t.GPU.Cycles, t.GPU.Launches, t.GPU.StallPortCycles, t.GPU.StallSkipCycles,
			t.GPU.StallSchedCycles, t.GPU.SkippedCycles, t.GPU.DRAMAccesses, t.GPU.DRAMBacklogCycles)
		for _, sm := range t.GPU.SMs {
			fmt.Fprintf(&b, "  sm %2d: busy %12d idle %12d of %12d cycles\n", sm.SM, sm.Busy, sm.Idle, sm.Cycles)
		}
	}
	if t.CPU.Workloads > 0 {
		fmt.Fprintf(&b, "cpu: %d workloads, %d trace events in %d batches, sweep %d accesses / %d probes\n",
			t.CPU.Workloads, t.CPU.TraceEvents, t.CPU.TraceBatches, t.CPU.SweepAccesses, t.CPU.SweepProbes)
	}
	if len(t.Benchmarks) > 0 {
		b.WriteString("benchmarks (executed characterizations only):\n")
		for _, br := range t.Benchmarks {
			fmt.Fprintf(&b, "  %-24s %2d runs %8.2fs %14d cycles %12.0f cyc/s\n",
				br.Bench, br.Runs, float64(br.WallNs)/1e9, br.Cycles, br.CyclesPerSec)
		}
	}
	if len(t.Experiments) > 0 {
		b.WriteString("experiments:\n")
		for _, e := range t.Experiments {
			status := "ok"
			if e.Err != "" {
				status = "ERR " + e.Err
			}
			fmt.Fprintf(&b, "  %-12s %8.2fs  %s\n", e.ID, float64(e.WallNs)/1e9, status)
		}
	}
	return b.String()
}

// Write emits telemetry.json and telemetry.txt into dir, creating it if
// needed.
func (t *Telemetry) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := t.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "telemetry.json"), append(js, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "telemetry.txt"), []byte(t.Render()), 0o644)
}
