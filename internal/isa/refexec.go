package isa

import (
	"fmt"
	"math"
	"math/bits"
)

// This file retains the original per-*Thread warp interpreter, unchanged,
// as the reference implementation for differential testing: the optimized
// flat-register interpreter in exec.go must stay bit-identical to it on
// every kernel, which internal/gpusim's reference differential pins
// across all twelve Rodinia benchmarks. Build reference warps with
// MakeCTARef (or, in gpusim's tests, the GPU's test-only refInterp
// hook).

// Thread holds one thread's architectural state in the reference
// interpreter. The optimized interpreter keeps no per-thread objects; it
// stores all lanes' registers in flat per-warp arrays.
type Thread struct {
	I      []int64
	F      []float64
	P      []bool
	Tid    int // thread index within the CTA
	Cta    int // CTA index within the grid
	Local  []byte
	Exited bool
}

// RefWarp executes up to WarpSize threads in lockstep using a SIMT
// reconvergence stack, dispatching through the architectural Instr and
// per-thread register slices. It is the retained reference the optimized
// Warp is differentially tested against.
type RefWarp struct {
	Kernel  *Kernel
	Threads [WarpSize]*Thread
	ID      int // warp index within its CTA

	stack     []simtEntry
	atBarrier bool
	done      bool
	accessBuf []MemAccess
}

var _ WarpExec = (*RefWarp)(nil)

// NewRefWarp builds a reference warp over the given threads (entries may
// be nil for a partially filled trailing warp).
func NewRefWarp(k *Kernel, id int, threads []*Thread) *RefWarp {
	w := &RefWarp{Kernel: k, ID: id}
	var mask uint32
	for i, t := range threads {
		if i >= WarpSize {
			break
		}
		if t != nil {
			w.Threads[i] = t
			mask |= 1 << uint(i)
		}
	}
	w.stack = []simtEntry{{pc: 0, rpc: -1, mask: mask}}
	if mask == 0 {
		w.done = true
	}
	return w
}

// Done reports whether every thread in the warp has exited.
func (w *RefWarp) Done() bool { return w.done }

// AtBarrier reports whether the warp is waiting at a CTA barrier.
func (w *RefWarp) AtBarrier() bool { return w.atBarrier }

// ReleaseBarrier resumes a warp waiting at a barrier.
func (w *RefWarp) ReleaseBarrier() { w.atBarrier = false }

// top pops fully reconverged entries and returns the active stack top, or
// nil if the warp has finished.
func (w *RefWarp) top() *simtEntry {
	for len(w.stack) > 0 {
		e := &w.stack[len(w.stack)-1]
		if e.mask == 0 || (e.rpc >= 0 && e.pc == e.rpc) {
			// Reconverged (or emptied by exits): merge control back.
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return e
	}
	w.done = true
	return nil
}

// Exec executes one warp instruction, updating architectural state, and
// fills st with a description of it. Exec must not be called while the
// warp is at a barrier or after it is done.
func (w *RefWarp) Exec(env *Env, st *Step) error {
	e := w.top()
	if e == nil {
		*st = Step{Done: true}
		return nil
	}
	if w.atBarrier {
		*st = Step{}
		return fmt.Errorf("isa: Exec on warp waiting at barrier")
	}
	pc := e.pc
	ins := &w.Kernel.Instrs[pc]
	*st = Step{
		Instr:       ins,
		PC:          pc,
		ActiveMask:  e.mask,
		ActiveCount: bits.OnesCount32(e.mask),
	}

	switch ins.Op {
	case OpBra:
		var taken, notTaken uint32
		for lane := 0; lane < WarpSize; lane++ {
			if e.mask&(1<<uint(lane)) == 0 {
				continue
			}
			t := w.Threads[lane]
			p := t.P[ins.Pred]
			if ins.Neg {
				p = !p
			}
			if p {
				taken |= 1 << uint(lane)
			} else {
				notTaken |= 1 << uint(lane)
			}
		}
		switch {
		case notTaken == 0:
			e.pc = ins.Target
		case taken == 0:
			e.pc = pc + 1
		default:
			// Divergence: the current entry becomes the reconvergence
			// entry; push the fall-through path, then the taken path.
			st.Diverged = true
			e.pc = ins.Recon
			w.stack = append(w.stack,
				simtEntry{pc: pc + 1, rpc: ins.Recon, mask: notTaken},
				simtEntry{pc: ins.Target, rpc: ins.Recon, mask: taken},
			)
		}
		return nil

	case OpJmp:
		e.pc = ins.Target
		return nil

	case OpBar:
		w.atBarrier = true
		e.pc = pc + 1
		st.AtBarrier = true
		return nil

	case OpExit:
		exiting := e.mask
		for lane := 0; lane < WarpSize; lane++ {
			if exiting&(1<<uint(lane)) != 0 {
				w.Threads[lane].Exited = true
			}
		}
		// Remove the exiting lanes from every stack entry so they never
		// resume at a reconvergence point.
		for i := range w.stack {
			w.stack[i].mask &^= exiting
		}
		if w.top() == nil {
			st.Done = true
		}
		return nil

	case OpLd, OpLdF, OpSt, OpStF, OpAtom:
		w.accessBuf = w.accessBuf[:0]
		for lane := 0; lane < WarpSize; lane++ {
			if e.mask&(1<<uint(lane)) == 0 {
				continue
			}
			t := w.Threads[lane]
			addr := uint64(t.I[ins.Src1] + ins.Imm)
			if err := w.execMem(env, t, ins, addr); err != nil {
				return fmt.Errorf("kernel %s pc=%d (%v %v): cta=%d tid=%d: %w",
					w.Kernel.Name, pc, ins.Op, ins.Space, t.Cta, t.Tid, err)
			}
			w.accessBuf = append(w.accessBuf, MemAccess{
				Lane:  lane,
				Addr:  addr,
				Size:  ins.MType.Size(),
				Store: ins.Op == OpSt || ins.Op == OpStF || ins.Op == OpAtom,
			})
		}
		st.Accesses = w.accessBuf
		e.pc = pc + 1
		return nil

	default:
		for lane := 0; lane < WarpSize; lane++ {
			if e.mask&(1<<uint(lane)) == 0 {
				continue
			}
			w.execALU(env, w.Threads[lane], ins)
		}
		e.pc = pc + 1
		return nil
	}
}

func (w *RefWarp) spaceArena(env *Env, t *Thread, s Space) []byte {
	switch s {
	case SpaceShared:
		return env.Shared
	case SpaceLocal:
		return t.Local
	default:
		return env.Mem.arena(s)
	}
}

func (w *RefWarp) execMem(env *Env, t *Thread, ins *Instr, addr uint64) error {
	arena := w.spaceArena(env, t, ins.Space)
	switch ins.Op {
	case OpLd:
		raw, err := loadRaw(arena, addr, ins.MType)
		if err != nil {
			return err
		}
		switch ins.MType {
		case U8:
			t.I[ins.Dst] = int64(raw & 0xff)
		case I32:
			t.I[ins.Dst] = int64(int32(uint32(raw)))
		default:
			t.I[ins.Dst] = int64(raw)
		}
	case OpLdF:
		raw, err := loadRaw(arena, addr, ins.MType)
		if err != nil {
			return err
		}
		if ins.MType == F32 {
			t.F[ins.Dst] = float64(math.Float32frombits(uint32(raw)))
		} else {
			t.F[ins.Dst] = math.Float64frombits(raw)
		}
	case OpSt:
		return storeRaw(arena, addr, ins.MType, uint64(t.I[ins.Src2]))
	case OpStF:
		v := t.F[ins.Src2]
		if ins.MType == F32 {
			return storeRaw(arena, addr, ins.MType, uint64(math.Float32bits(float32(v))))
		}
		return storeRaw(arena, addr, ins.MType, math.Float64bits(v))
	case OpAtom:
		raw, err := loadRaw(arena, addr, I32)
		if err != nil {
			return err
		}
		old := int64(int32(uint32(raw)))
		if err := storeRaw(arena, addr, I32, uint64(old+t.I[ins.Src2])); err != nil {
			return err
		}
		t.I[ins.Dst] = old
	}
	return nil
}

func (w *RefWarp) execALU(env *Env, t *Thread, ins *Instr) {
	isrc2 := func() int64 {
		if ins.UseImm {
			return ins.Imm
		}
		return t.I[ins.Src2]
	}
	fsrc2 := func() float64 {
		if ins.UseImm {
			return ins.FImm
		}
		return t.F[ins.Src2]
	}
	switch ins.Op {
	case OpNop:
	case OpIAdd:
		t.I[ins.Dst] = t.I[ins.Src1] + isrc2()
	case OpISub:
		t.I[ins.Dst] = t.I[ins.Src1] - isrc2()
	case OpIMul:
		t.I[ins.Dst] = t.I[ins.Src1] * isrc2()
	case OpIDiv:
		if d := isrc2(); d != 0 {
			t.I[ins.Dst] = t.I[ins.Src1] / d
		} else {
			t.I[ins.Dst] = 0
		}
	case OpIRem:
		if d := isrc2(); d != 0 {
			t.I[ins.Dst] = t.I[ins.Src1] % d
		} else {
			t.I[ins.Dst] = 0
		}
	case OpIMin:
		t.I[ins.Dst] = min(t.I[ins.Src1], isrc2())
	case OpIMax:
		t.I[ins.Dst] = max(t.I[ins.Src1], isrc2())
	case OpIAnd:
		t.I[ins.Dst] = t.I[ins.Src1] & isrc2()
	case OpIOr:
		t.I[ins.Dst] = t.I[ins.Src1] | isrc2()
	case OpIXor:
		t.I[ins.Dst] = t.I[ins.Src1] ^ isrc2()
	case OpShl:
		t.I[ins.Dst] = t.I[ins.Src1] << uint(isrc2())
	case OpShr:
		t.I[ins.Dst] = t.I[ins.Src1] >> uint(isrc2())
	case OpINeg:
		t.I[ins.Dst] = -t.I[ins.Src1]
	case OpIAbs:
		if v := t.I[ins.Src1]; v < 0 {
			t.I[ins.Dst] = -v
		} else {
			t.I[ins.Dst] = v
		}
	case OpMov:
		t.I[ins.Dst] = t.I[ins.Src1]
	case OpMovI:
		t.I[ins.Dst] = ins.Imm
	case OpFAdd:
		t.F[ins.Dst] = t.F[ins.Src1] + fsrc2()
	case OpFSub:
		t.F[ins.Dst] = t.F[ins.Src1] - fsrc2()
	case OpFMul:
		t.F[ins.Dst] = t.F[ins.Src1] * fsrc2()
	case OpFDiv:
		t.F[ins.Dst] = t.F[ins.Src1] / fsrc2()
	case OpFMin:
		t.F[ins.Dst] = math.Min(t.F[ins.Src1], fsrc2())
	case OpFMax:
		t.F[ins.Dst] = math.Max(t.F[ins.Src1], fsrc2())
	case OpFNeg:
		t.F[ins.Dst] = -t.F[ins.Src1]
	case OpFAbs:
		t.F[ins.Dst] = math.Abs(t.F[ins.Src1])
	case OpFMA:
		t.F[ins.Dst] = t.F[ins.Src1]*t.F[ins.Src2] + t.F[ins.Src3]
	case OpFMov:
		t.F[ins.Dst] = t.F[ins.Src1]
	case OpFMovI:
		t.F[ins.Dst] = ins.FImm
	case OpFSqrt:
		t.F[ins.Dst] = math.Sqrt(t.F[ins.Src1])
	case OpFExp:
		t.F[ins.Dst] = math.Exp(t.F[ins.Src1])
	case OpFLog:
		t.F[ins.Dst] = math.Log(t.F[ins.Src1])
	case OpFSin:
		t.F[ins.Dst] = math.Sin(t.F[ins.Src1])
	case OpFCos:
		t.F[ins.Dst] = math.Cos(t.F[ins.Src1])
	case OpFPow:
		t.F[ins.Dst] = math.Pow(t.F[ins.Src1], fsrc2())
	case OpI2F:
		t.F[ins.Dst] = float64(t.I[ins.Src1])
	case OpF2I:
		t.I[ins.Dst] = int64(t.F[ins.Src1])
	case OpSetpI:
		t.P[ins.Dst] = cmpI(ins.Cmp, t.I[ins.Src1], isrc2())
	case OpSetpF:
		t.P[ins.Dst] = cmpF(ins.Cmp, t.F[ins.Src1], fsrc2())
	case OpPAnd:
		t.P[ins.Dst] = t.P[ins.Src1] && t.P[ins.Src2]
	case OpPOr:
		t.P[ins.Dst] = t.P[ins.Src1] || t.P[ins.Src2]
	case OpPNot:
		t.P[ins.Dst] = !t.P[ins.Src1]
	case OpSelI:
		if t.P[ins.Src3] {
			t.I[ins.Dst] = t.I[ins.Src1]
		} else {
			t.I[ins.Dst] = isrc2()
		}
	case OpSelF:
		if t.P[ins.Src3] {
			t.F[ins.Dst] = t.F[ins.Src1]
		} else {
			t.F[ins.Dst] = fsrc2()
		}
	case OpRdSp:
		switch ins.Sp {
		case SpecTid:
			t.I[ins.Dst] = int64(t.Tid)
		case SpecCta:
			t.I[ins.Dst] = int64(t.Cta)
		case SpecNTid:
			t.I[ins.Dst] = int64(env.BlockDim)
		case SpecNCta:
			t.I[ins.Dst] = int64(env.GridDim)
		}
	}
}
