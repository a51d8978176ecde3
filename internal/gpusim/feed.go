package gpusim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
)

// Functional-first, asynchronous launches. A live launch runs each
// kernel on a producer goroutine: isa.Functional executes the grid CTA
// by CTA in index order, records every warp's steps, and publishes each
// finished CTA to the spec's ctaFeed. Launch returns once the producers
// have exited, so device memory holds the kernel's results and the host
// code may read them and launch again, as a CUDA launch returns to the
// host before the device is done. The launch's timing runs on a
// goroutine of its own (GPU.time) once the previous launch's timing has
// ended: it dispatches each kernel's CTAs in the same index order, so
// fill waits only until the CTA it is about to place has been published,
// and then runs its warps as isa.ReplayWarps exactly as a trace replay
// would. So the next launch's kernel executes while this one is timed,
// and warps in the timing loop never execute. GPU.Wait ends the pipeline:
// Stats, an attached capture and the telemetry are complete after it.
// At most pipelineDepth timings are pending behind a running producer,
// so at most pipelineDepth+1 launches' recordings are alive at once.
//
// This models the launch faithfully under a workload invariant that
// internal/core/schedule_test.go pins for every benchmark: a warp's
// stream does not depend on the schedule, because CTAs of one launch
// communicate only through benign same-value stores, and the warps of a
// CTA only through barriers. An atomic's returned value does depend on
// the order CTAs run in; the producer fixes that order, so it records one
// valid outcome, the same under every configuration (the rule trace.go
// states). One producer runs a kernel's whole grid, never CTAs spread
// over several goroutines, so those same-value stores cannot race. The
// timing loop never touches benchmark memory, so a launch's timing may
// run while the next launch's kernel writes it.

// pipelineDepth is how many launches' timings may be pending behind a
// running producer. Depths 2 and 4 captured the medium suite within
// noise of depth 1 (DESIGN, "Timing-core architecture"), and each step
// deeper keeps one more recording alive.
const pipelineDepth = 1

// pipeline chains each launch's timing behind the previous launch's.
// A launch puts a token in room before its producers start, and its
// timing takes one out once the recording is released. last is the
// launching goroutine's; err is shared with the timing goroutines under
// mu.
type pipeline struct {
	room chan struct{} // one token per launch whose recording is alive
	last chan struct{} // closed when the latest launch's timing has ended; nil before the first

	mu  sync.Mutex
	err error // the first failure of a launch's timing, once known
}

func newPipeline() pipeline {
	return pipeline{room: make(chan struct{}, pipelineDepth+1)}
}

// fail records a timing failure; the first one sticks.
func (p *pipeline) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// failure returns the first timing failure known so far.
func (p *pipeline) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// ctaFeed carries one kernel's recorded CTAs from its producer to the
// timing loop.
type ctaFeed struct {
	rec   *isa.LaunchRecorder
	ready chan struct{} // one token per published CTA; closed when the producer exits
	have  int           // tokens the timing loop has taken
	err   error         // why the producer stopped short; read once it has exited
	stop  atomic.Bool   // asks the producer to exit before its next CTA
}

// newCTAFeed sizes ready to the grid, one token per CTA, so the producer
// never blocks on the timing loop.
func newCTAFeed(rec *isa.LaunchRecorder, grid int) *ctaFeed {
	return &ctaFeed{rec: rec, ready: make(chan struct{}, grid)}
}

// produce runs the kernel's grid in index order, publishing each
// finished CTA, until the grid is done, a CTA faults or panics, or the
// timing loop asks it to stop. ref selects the reference interpreter.
func (f *ctaFeed) produce(spec LaunchSpec, ref bool) {
	defer close(f.ready)
	defer func() {
		if p := recover(); p != nil {
			f.err = fmt.Errorf("gpusim: kernel %s panicked in functional execution: %v", spec.Kernel.Name, p)
		}
	}()
	var fe isa.Functional
	var cta *isa.CTA
	for id := 0; id < spec.Launch.Grid && !f.stop.Load(); id++ {
		switch {
		case ref:
			cta = isa.MakeCTARef(spec.Kernel, id, spec.Launch, spec.Mem)
		case cta == nil:
			cta = isa.MakeCTA(spec.Kernel, id, spec.Launch, spec.Mem)
		default:
			cta.Reset(id) // one CTA at a time: recycle its arenas
		}
		if err := fe.RunCTA(spec.Kernel, cta, f.rec); err != nil {
			f.err = err
			return
		}
		f.ready <- struct{}{}
	}
}

// await blocks until CTA id has been published, or returns why the
// producer stopped short of it.
func (f *ctaFeed) await(id int) error {
	for f.have <= id {
		if _, ok := <-f.ready; !ok {
			if f.err != nil {
				return f.err
			}
			return fmt.Errorf("gpusim: kernel %s: CTA %d was never produced", f.rec.Trace().Kernel.Name, id)
		}
		f.have++
	}
	return nil
}

// finish stops the producer and waits until it has exited. Calling it
// again is a no-op.
func (f *ctaFeed) finish() {
	f.stop.Store(true)
	for range f.ready {
	}
}
