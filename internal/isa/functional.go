package isa

import "fmt"

// CTA is one cooperative thread array (thread block) instantiated for
// execution: its warps plus its private shared-memory environment.
type CTA struct {
	Index int
	Warps []WarpExec
	Env   *Env
}

// MakeCTA instantiates block ctaID of the launch with the optimized
// flat-register interpreter: one contiguous register arena per file is
// allocated for the whole CTA and sliced per warp, and the kernel's
// pre-decoded instruction stream is shared by every warp.
func MakeCTA(k *Kernel, ctaID int, launch Launch, mem *Memory) *CTA {
	env := &Env{
		Mem:      mem,
		Shared:   make([]byte, k.SharedBytes),
		BlockDim: launch.Block,
		GridDim:  launch.Grid,
	}
	prog := k.program()
	nWarps := (launch.Block + WarpSize - 1) / WarpSize
	// CTA-contiguous register arenas, zero-initialized like the reference
	// interpreter's per-thread slices.
	strideI := WarpSize * k.NumI
	strideF := WarpSize * k.NumF
	strideL := WarpSize * k.LocalBytes
	var (
		regI  []int64
		regF  []float64
		regP  []uint32
		local []byte
	)
	if strideI > 0 {
		regI = make([]int64, nWarps*strideI)
	}
	if strideF > 0 {
		regF = make([]float64, nWarps*strideF)
	}
	if k.NumP > 0 {
		regP = make([]uint32, nWarps*k.NumP)
	}
	if strideL > 0 {
		local = make([]byte, nWarps*strideL)
	}
	cta := &CTA{Index: ctaID, Env: env, Warps: make([]WarpExec, 0, nWarps)}
	// One slab for the Warp structs (adjacent warps stay adjacent for the
	// scheduler), one for the initial SIMT stack entries, and one for the
	// access buffers so a CTA costs a handful of allocations rather than a
	// few per warp. Stacks grow past their slab slot only on divergence.
	warps := make([]Warp, nWarps)
	stacks := make([]simtEntry, nWarps)
	access := make([]MemAccess, nWarps*WarpSize)
	for wi := 0; wi < nWarps; wi++ {
		w := &warps[wi]
		*w = Warp{
			Kernel:     k,
			ID:         wi,
			prog:       prog,
			baseTid:    wi * WarpSize,
			localBytes: k.LocalBytes,
			stack:      stacks[wi : wi : wi+1],
			accessBuf:  access[wi*WarpSize : wi*WarpSize : (wi+1)*WarpSize],
		}
		if strideI > 0 {
			w.regI = regI[wi*strideI : (wi+1)*strideI : (wi+1)*strideI]
		}
		if strideF > 0 {
			w.regF = regF[wi*strideF : (wi+1)*strideF : (wi+1)*strideF]
		}
		if k.NumP > 0 {
			w.regP = regP[wi*k.NumP : (wi+1)*k.NumP : (wi+1)*k.NumP]
		}
		if strideL > 0 {
			w.local = local[wi*strideL : (wi+1)*strideL : (wi+1)*strideL]
		}
		w.start(ctaID, launch.Block)
		cta.Warps = append(cta.Warps, w)
	}
	return cta
}

// start puts the warp at the kernel's entry as a warp of block ctaID,
// with one lane per thread of the block it covers.
func (w *Warp) start(ctaID, block int) {
	n := min(WarpSize, block-w.baseTid)
	mask := uint32((uint64(1) << uint(n)) - 1)
	w.ctaID = ctaID
	w.stack = append(w.stack[:0], simtEntry{pc: 0, rpc: -1, mask: mask})
	w.atBarrier = false
	w.done = mask == 0
}

// Reset turns a CTA built by MakeCTA into block ctaID of the same launch,
// reusing its arenas: a caller that runs one CTA at a time then
// allocates once per launch instead of once per CTA.
func (c *CTA) Reset(ctaID int) {
	c.Index = ctaID
	clear(c.Env.Shared)
	for _, wx := range c.Warps {
		w := wx.(*Warp)
		clear(w.regI)
		clear(w.regF)
		clear(w.regP)
		clear(w.local)
		w.start(ctaID, c.Env.BlockDim)
	}
}

// MakeCTARef instantiates block ctaID of the launch with the retained
// reference interpreter (refexec.go): per-thread register slices grouped
// into RefWarps, exactly as the simulator allocated state before the
// flat-register fast path. Differential tests run both constructions over
// identical launches and require bit-identical results.
func MakeCTARef(k *Kernel, ctaID int, launch Launch, mem *Memory) *CTA {
	env := &Env{
		Mem:      mem,
		Shared:   make([]byte, k.SharedBytes),
		BlockDim: launch.Block,
		GridDim:  launch.Grid,
	}
	nWarps := (launch.Block + WarpSize - 1) / WarpSize
	cta := &CTA{Index: ctaID, Env: env, Warps: make([]WarpExec, 0, nWarps)}
	for w := 0; w < nWarps; w++ {
		lo := w * WarpSize
		hi := min(lo+WarpSize, launch.Block)
		threads := make([]*Thread, hi-lo)
		for i := range threads {
			t := &Thread{
				I:   make([]int64, k.NumI),
				F:   make([]float64, k.NumF),
				P:   make([]bool, k.NumP),
				Tid: lo + i,
				Cta: ctaID,
			}
			if k.LocalBytes > 0 {
				t.Local = make([]byte, k.LocalBytes)
			}
			threads[i] = t
		}
		cta.Warps = append(cta.Warps, NewRefWarp(k, w, threads))
	}
	return cta
}

// Done reports whether every warp of the CTA has finished.
func (c *CTA) Done() bool {
	for _, w := range c.Warps {
		if !w.Done() {
			return false
		}
	}
	return true
}

// maxFunctionalSteps bounds per-warp execution between synchronization
// points so kernel bugs (runaway loops) fail fast instead of hanging tests.
const maxFunctionalSteps = 1 << 30

// Functional executes kernels for correctness only, with no timing model.
// Warps within a CTA run to the next barrier in turn, which is a valid
// schedule for kernels whose inter-warp communication goes through
// barriers (all Rodinia kernels here).
type Functional struct {
	// Steps counts warp instructions executed across launches.
	Steps uint64
}

var _ Executor = (*Functional)(nil)

// Launch runs the kernel to completion on every CTA of the launch.
func (f *Functional) Launch(k *Kernel, launch Launch, mem *Memory) error {
	if err := launch.Validate(); err != nil {
		return err
	}
	for ctaID := 0; ctaID < launch.Grid; ctaID++ {
		if err := f.RunCTA(k, MakeCTA(k, ctaID, launch, mem), nil); err != nil {
			return err
		}
	}
	return nil
}

// RunCTA runs one CTA of kernel k to completion. With rec non-nil it
// also records every warp's steps as the CTA's streams in rec, so a
// timing simulator can replay the CTA without executing it again.
func (f *Functional) RunCTA(k *Kernel, cta *CTA, rec *LaunchRecorder) error {
	var recs []WarpRecorder
	if rec != nil {
		recs = rec.BeginCTA(cta.Index)
	}
	var steps uint64
	var st Step
	for {
		progressed := false
		anyBarrier := false
		for i, w := range cta.Warps {
			for !w.Done() && !w.AtBarrier() {
				if err := w.Exec(cta.Env, &st); err != nil {
					return err
				}
				if recs != nil {
					recs[i].Record(&st)
				}
				progressed = true
				steps++
				if steps > maxFunctionalSteps {
					return fmt.Errorf("isa: kernel %s cta %d exceeded %d steps; runaway loop?", k.Name, cta.Index, maxFunctionalSteps)
				}
			}
			if w.AtBarrier() {
				anyBarrier = true
			}
		}
		f.Steps += steps
		steps = 0
		if cta.Done() {
			if rec != nil {
				rec.EndCTA()
			}
			return nil
		}
		if anyBarrier {
			for _, w := range cta.Warps {
				if w.AtBarrier() {
					w.ReleaseBarrier()
				}
			}
			continue
		}
		if !progressed {
			return fmt.Errorf("isa: kernel %s cta %d deadlocked", k.Name, cta.Index)
		}
	}
}
