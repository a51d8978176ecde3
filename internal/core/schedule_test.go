package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sizes"
	"repro/internal/store"
)

// The schedule-perturbation oracle. A live launch executes each kernel
// on a producer that runs the CTAs in index order and the warps of a CTA
// to their next barrier in turn, and the timing loop replays what it
// recorded (internal/gpusim, feed.go). Stats are then the same as under
// the timing schedule only if no warp's stream depends on the schedule
// it ran under. The suite matrix cannot test that: its live and replay
// legs share the producer's one recording. So the oracle records every
// launch again under schedules the producer never uses and requires the
// encoded traces to be byte-identical.

// schedule is a functional schedule the oracle records a launch under.
type schedule int

const (
	// reversed runs the CTAs in reverse index order, and the warps of a
	// CTA in reverse order, each to its next barrier.
	reversed schedule = iota
	// interleaved runs the CTAs in index order and the warps of a CTA one
	// instruction at a time, round robin, between barriers.
	interleaved
)

func (s schedule) String() string { return [...]string{"reversed", "interleaved"}[s] }

// scheduleExec is an isa.Executor that executes and records every launch
// under one schedule.
type scheduleExec struct {
	sched    schedule
	launches []*isa.LaunchTrace
}

func (e *scheduleExec) Launch(k *isa.Kernel, launch isa.Launch, mem *isa.Memory) error {
	if err := launch.Validate(); err != nil {
		return err
	}
	rec, err := isa.NewLaunchRecorder(k, launch)
	if err != nil {
		return err
	}
	for i := 0; i < launch.Grid; i++ {
		id := i
		if e.sched == reversed {
			id = launch.Grid - 1 - i
		}
		cta := isa.MakeCTA(k, id, launch, mem)
		if err := e.runCTA(cta, rec.BeginCTA(id)); err != nil {
			return err
		}
		rec.EndCTA()
	}
	e.launches = append(e.launches, rec.Finalize())
	return nil
}

func (e *scheduleExec) Wait() error { return nil }

// runCTA runs the CTA to completion under the schedule, recording each
// warp's steps into its recorder.
func (e *scheduleExec) runCTA(cta *isa.CTA, recs []isa.WarpRecorder) error {
	n := len(cta.Warps)
	var st isa.Step
	for !cta.Done() {
		stepped := false
		for j := 0; j < n; j++ {
			i := j
			if e.sched == reversed {
				i = n - 1 - j
			}
			w := cta.Warps[i]
			for !w.Done() && !w.AtBarrier() {
				if err := w.Exec(cta.Env, &st); err != nil {
					return err
				}
				recs[i].Record(&st)
				stepped = true
				if e.sched == interleaved {
					break
				}
			}
		}
		if stepped {
			continue
		}
		// No warp could step: every live warp waits at the barrier.
		released := false
		for _, w := range cta.Warps {
			if w.AtBarrier() {
				w.ReleaseBarrier()
				released = true
			}
		}
		if !released {
			return fmt.Errorf("cta %d deadlocked", cta.Index)
		}
	}
	return nil
}

// checkScheduleInvariance runs a workload on a capturing GPU, which
// records its launches in the producer's order, and then under each
// perturbed schedule, and fails unless every recording encodes
// byte-identical to the producer's. run executes the workload on the
// executor it is given and validates its results.
func checkScheduleInvariance(run func(isa.Executor) error) error {
	g, err := gpusim.New(gpusim.Base())
	if err != nil {
		return err
	}
	tb := g.Capture()
	if err := run(g); err != nil {
		return fmt.Errorf("producer: %w", err)
	}
	if err := tb.Trace().Replayable(); err != nil {
		return err
	}
	want, err := store.EncodeTrace(tb.Trace())
	if err != nil {
		return err
	}
	for _, sc := range []schedule{reversed, interleaved} {
		ex := &scheduleExec{sched: sc}
		if err := run(ex); err != nil {
			return fmt.Errorf("%s schedule: %w", sc, err)
		}
		got, err := store.EncodeTrace(gpusim.ImportRunTrace(gpusim.Base(), ex.launches, ""))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s schedule: recording (%d bytes) differs from the producer's (%d bytes)", sc, len(got), len(want))
		}
	}
	return nil
}

// TestScheduleInvariance holds the oracle for every benchmark at the test
// class, and at medium outside -short.
func TestScheduleInvariance(t *testing.T) {
	for _, size := range []sizes.Class{sizes.Test, sizes.Medium} {
		if size != sizes.Test && testing.Short() {
			continue
		}
		for _, b := range kernels.All() {
			t.Run(b.Abbrev+"@"+size.String(), func(t *testing.T) {
				t.Parallel()
				err := checkScheduleInvariance(func(ex isa.Executor) error {
					in := b.InstanceAt(size)
					if err := in.Run(ex); err != nil {
						return err
					}
					return in.Check()
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestScheduleInvarianceCatchesCrossCTARead is the oracle's mutation
// check: CTA 1 loads a flag CTA 0 stores and loads once more when it
// sees it set, so its stream depends on whether CTA 0 ran first.
func TestScheduleInvarianceCatchesCrossCTARead(t *testing.T) {
	b := isa.NewBuilder()
	cta, flag, v := b.I(), b.I(), b.I()
	first, set := b.P(), b.P()
	b.Rd(cta, isa.SpecCta)
	b.LdParamI(flag, 0)
	b.SetpII(first, isa.CmpEQ, cta, 0)
	b.If(first, func() {
		b.MovI(v, 1)
		b.St(isa.I32, isa.SpaceGlobal, flag, 0, v)
	}, func() {
		b.Ld(v, isa.I32, isa.SpaceGlobal, flag, 0)
		b.SetpII(set, isa.CmpEQ, v, 1)
		b.If(set, func() { b.Ld(v, isa.I32, isa.SpaceGlobal, flag, 0) }, nil)
	})
	k := b.Build("crossctaread")
	err := checkScheduleInvariance(func(ex isa.Executor) error {
		mem := isa.NewMemory()
		mem.SetParamI(0, int64(mem.AllocGlobal(4)))
		if err := ex.Launch(k, isa.Launch{Grid: 2, Block: 32}, mem); err != nil {
			return err
		}
		return ex.Wait()
	})
	if err == nil || !strings.Contains(err.Error(), "reversed schedule") {
		t.Fatalf("oracle accepted a kernel whose CTA 1 reads CTA 0's store: %v", err)
	}
}
