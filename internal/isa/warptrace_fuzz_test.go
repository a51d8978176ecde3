package isa_test

import (
	"math/bits"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sizes"
)

// recordExec is an isa.Executor that runs every launch functionally and
// keeps its recording.
type recordExec struct {
	launches []*isa.LaunchTrace
}

func (e *recordExec) Launch(k *isa.Kernel, launch isa.Launch, mem *isa.Memory) error {
	rec, err := isa.NewLaunchRecorder(k, launch)
	if err != nil {
		return err
	}
	var f isa.Functional
	for id := 0; id < launch.Grid; id++ {
		if err := f.RunCTA(k, isa.MakeCTA(k, id, launch, mem), rec); err != nil {
			rec.Release()
			return err
		}
	}
	e.launches = append(e.launches, rec.Finalize())
	return nil
}

func (e *recordExec) Wait() error { return nil }

// FuzzReplayWarp replays arbitrary bytes as one warp's stream of a
// benchmark kernel, chosen by index among every kernel the twelve
// benchmarks launch. The seeds are those kernels' recorded test-class
// streams (each kernel's first recorded warp). Whatever the bytes, Exec
// returns an error or a well-formed step, never panics, and consumes at
// least one byte per step, so a walk ends within len(data) steps. A
// well-formed memory step expands (Step.Lanes) to one access per active
// lane, in the mask's lane order, whichever form it came back in.
func FuzzReplayWarp(f *testing.F) {
	var ks []*isa.Kernel
	seen := make(map[*isa.Kernel]bool)
	for _, b := range kernels.All() {
		ex := &recordExec{}
		if err := b.InstanceAt(sizes.Test).Run(ex); err != nil {
			f.Fatal(err)
		}
		for _, lt := range ex.launches {
			if seen[lt.Kernel] {
				continue
			}
			seen[lt.Kernel] = true
			f.Add(uint8(len(ks)), lt.Warps[0].Data)
			ks = append(ks, lt.Kernel)
		}
	}
	f.Fuzz(func(t *testing.T, kernel uint8, data []byte) {
		k := ks[int(kernel)%len(ks)]
		lt := &isa.LaunchTrace{Kernel: k, Launch: isa.Launch{Grid: 1, Block: isa.WarpSize}, Warps: []isa.WarpTrace{{Data: data}}}
		cta := isa.MakeReplayCTA(lt, 0)
		w := cta.Warps[0]
		var st isa.Step
		buf := make([]isa.MemAccess, isa.WarpSize)
		for steps := 1; !w.Done(); steps++ {
			if w.AtBarrier() {
				w.ReleaseBarrier()
			}
			if err := w.Exec(cta.Env, &st); err != nil {
				return
			}
			if steps > len(data) {
				t.Fatalf("%d steps from %d bytes", steps, len(data))
			}
			if st.PC >= len(k.Instrs) || st.Instr != &k.Instrs[st.PC] {
				t.Fatalf("step %d: PC %d, Instr %p", steps, st.PC, st.Instr)
			}
			if st.Instr.Op.Class() == isa.ClassMem {
				acc := st.Lanes(buf)
				if len(acc) != st.ActiveCount {
					t.Fatalf("step %d: %d accesses for %d active lanes", steps, len(acc), st.ActiveCount)
				}
				m := st.ActiveMask
				for _, a := range acc {
					if lane := bits.TrailingZeros32(m); a.Lane != lane {
						t.Fatalf("step %d: access for lane %d where the mask's next lane is %d", steps, a.Lane, lane)
					}
					m &= m - 1
				}
			}
		}
	})
}
