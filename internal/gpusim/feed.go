package gpusim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/isa"
)

// Functional-first launches. A live launch runs each kernel on a
// producer goroutine: isa.Functional executes the grid CTA by CTA in
// index order, records every warp's steps, and publishes each finished
// CTA to the spec's ctaFeed. The timing loop on the calling goroutine
// dispatches each kernel's CTAs in the same index order, so fill waits
// only until the CTA it is about to place has been published, and then
// runs its warps as isa.ReplayWarps exactly as a trace replay would.
// The kernel thus runs ahead on a second core while the timing loop
// consumes what it recorded; warps in the timing loop never execute.
//
// This models the launch faithfully under a workload invariant that
// internal/core/schedule_test.go pins for every benchmark: a warp's
// stream does not depend on the schedule, because CTAs of one launch
// communicate only through benign same-value stores, and the warps of a
// CTA only through barriers. An atomic's returned value does depend on
// the order CTAs run in; the producer fixes that order, so it records one
// valid outcome, the same under every configuration (the rule trace.go
// states). One producer runs a kernel's whole grid, never CTAs spread
// over several goroutines, so those same-value stores cannot race.

// ctaFeed carries one kernel's recorded CTAs from its producer to the
// timing loop.
type ctaFeed struct {
	rec   *isa.LaunchRecorder
	ready chan struct{} // one token per published CTA; closed when the producer exits
	have  int           // tokens the timing loop has taken
	err   error         // why the producer stopped short; read after ready closes
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
