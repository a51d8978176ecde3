package main

import (
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sizes"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// profile characterizes the 24 CPU workloads through
// core.CharacterizeCPUAllObs with one worker: 35,552,423 memory
// references at the medium class. Workload event generation, the trace
// harness and the cachesim sweep, sharing and footprint consumers do all
// the work and the GPU does none, so profile is the control for every GPU
// change and keeps a CPU-pipeline regression from hiding behind a GPU
// gain. One request is one workload; the heap is settled between them,
// since a single call over all 24 let the resident-memory peak swing by a
// fifth with the garbage collector's timing.
type profile struct{ o options }

func newProfile(o options) *profile { return &profile{o: o} }

func (pr *profile) setups() int { return 3 }

// setup runs the pipeline once at the test class, so the harness's pooled
// batch buffers and the heap are warm before timing.
func (pr *profile) setup() (*pass, error) {
	core.CharacterizeCPUAllObs(workloads.All(), sizes.Test, 1, nil)
	return nil, nil
}

func (pr *profile) run(tr *tracer) (*pass, error) {
	p := &pass{}
	var reg *obs.Registry
	if tr != nil {
		reg = obs.New()
	}
	var memRefs, instrs uint64
	for _, w := range workloads.All() {
		id := profileID(w)
		settle()
		root := tr.begin(0, "harness", "profile "+id)
		t0 := time.Now()
		sp := tr.begin(root, "core", "CharacterizeCPUAllObs")
		ps := core.CharacterizeCPUAllObs([]*workloads.Workload{w}, pr.o.size, 1, reg)
		tr.end(sp)
		p.timed(time.Since(t0))
		tr.end(root)
		if got, want := jsonHash(ps[0]), pr.o.pins.profile[id]; got != want {
			p.fail("%s: profile hash %s, pinned %s", id, got, want)
		}
		memRefs += ps[0].MemRefs
		instrs += ps[0].Instrs
	}
	p.counts = map[string]uint64{"cpu.mem_refs": memRefs, "cpu.instrs": instrs}
	if reg != nil {
		c := reg.Counters()
		for _, name := range []string{"cpu.trace.events", "cpu.trace.batches", "cpu.sweep.accesses", "cpu.sweep.probes"} {
			p.counts[name] = c[name]
		}
	}
	return p, nil
}

// profileID names a workload the way the pins do; streamcluster is in
// both suites.
func profileID(w *workloads.Workload) string { return w.Suite + "/" + w.Name }

// layers times event generation alone — a harness whose only consumer
// discards batches — and then each cachesim consumer alone on the same
// harness, minus that generation time.
func (pr *profile) layers(tr *tracer, traced *pass, m metrics) error {
	gen := pr.harnessPass(func() trace.BatchConsumer { return discard{} })
	m.set("workloads.generate_s", gen.Seconds())
	var sweeps []*cachesim.Sweep
	consumers := []struct {
		metric string
		make   func() trace.BatchConsumer
	}{
		{"cachesim.mix_s", func() trace.BatchConsumer { return &cachesim.Mix{} }},
		{"cachesim.sweep_s", func() trace.BatchConsumer {
			s := cachesim.NewSweep()
			sweeps = append(sweeps, s)
			return s
		}},
		{"cachesim.sharing_s", func() trace.BatchConsumer { return cachesim.NewSharing() }},
		{"cachesim.footprint_s", func() trace.BatchConsumer { return cachesim.NewDataFootprint() }},
	}
	for _, c := range consumers {
		m.set(c.metric, (pr.harnessPass(c.make) - gen).Seconds())
	}
	var probes, accesses uint64
	for _, s := range sweeps {
		probes += s.Probes
		accesses += s.Accesses
	}
	if accesses > 0 {
		m.set("cachesim.probes_per_access", float64(probes)/float64(accesses))
	}
	return nil
}

// harnessPass traces every workload once into a fresh consumer and
// returns the host time.
func (pr *profile) harnessPass(mk func() trace.BatchConsumer) time.Duration {
	var d time.Duration
	for _, w := range workloads.All() {
		h := trace.NewHarness(workloads.Threads)
		h.AddBatchConsumer(mk())
		t0 := time.Now()
		w.RunAt(h, pr.o.size)
		d += time.Since(t0)
	}
	return d
}

// discard is a consumer that drops every batch.
type discard struct{}

func (discard) Events([]trace.Event) {}

func (pr *profile) close() {}
