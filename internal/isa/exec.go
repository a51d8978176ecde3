package isa

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// WarpSize is the number of threads executed in SIMT lockstep. The SIMD
// pipeline width of a simulated GPU may be narrower; the timing model then
// charges multiple issue cycles per warp instruction.
const WarpSize = 32

// Env is the memory environment a warp executes against: the launch-wide
// Memory plus its CTA's shared-memory arena and the launch geometry.
type Env struct {
	Mem      *Memory
	Shared   []byte
	BlockDim int
	GridDim  int
}

// MemAccess describes one lane's memory access within a warp instruction.
type MemAccess struct {
	Lane  int
	Addr  uint64
	Size  int
	Store bool
}

// Step reports what a warp did for one executed instruction. The timing
// simulator prices the step; the functional executor ignores it.
type Step struct {
	Instr       *Instr
	PC          int
	ActiveMask  uint32
	ActiveCount int
	Accesses    []MemAccess // only for ClassMem instructions
	AtBarrier   bool        // warp stopped at a barrier
	Done        bool        // all threads exited
	Diverged    bool        // a branch split the warp
}

// WarpExec is the warp interpreter contract the timing simulator and the
// functional executor drive: the optimized flat-register Warp and the
// retained reference RefWarp (refexec.go) both implement it and must stay
// bit-identical on every kernel.
type WarpExec interface {
	// Exec executes one warp instruction, updating architectural state,
	// and fills st with a description of it. The out parameter (rather
	// than a returned Step) keeps the per-instruction hot path free of
	// struct copies. Exec must not be called while the warp is at a
	// barrier or after it is done.
	Exec(env *Env, st *Step) error
	// Done reports whether every thread in the warp has exited.
	Done() bool
	// AtBarrier reports whether the warp is waiting at a CTA barrier.
	AtBarrier() bool
	// ReleaseBarrier resumes a warp waiting at a barrier.
	ReleaseBarrier()
}

type simtEntry struct {
	pc, rpc int
	mask    uint32
}

// Warp executes up to WarpSize threads in lockstep using a SIMT
// reconvergence stack (Fung et al.; the mechanism GPGPU-Sim models).
//
// This is the optimized interpreter: it dispatches over the kernel's
// pre-decoded instruction stream (decode.go) with one switch per warp
// instruction, and keeps all lanes' architectural state in flat per-warp
// register files. The files are register-major — register r occupies the
// contiguous 32-lane row regI[r*32 : r*32+32] — so one instruction's
// per-lane loop walks sequential memory (three dense rows) instead of 32
// pointer-chased thread objects; predicate registers are uint32 lane
// bitmasks. It must stay bit-identical to RefWarp.
type Warp struct {
	Kernel *Kernel
	ID     int // warp index within its CTA

	prog       []dinstr
	baseTid    int // Tid of lane 0 within the CTA
	ctaID      int
	localBytes int

	regI  []int64   // r*WarpSize + lane
	regF  []float64 // r*WarpSize + lane
	regP  []uint32  // bit lane of regP[r]
	local []byte    // lane-strided local memory, localBytes per lane

	stack     []simtEntry
	atBarrier bool
	done      bool
	accessBuf []MemAccess
}

var _ WarpExec = (*Warp)(nil)

// rowI returns register r's 32-lane row of the integer file.
func (w *Warp) rowI(r int32) []int64 { return w.regI[int(r)*WarpSize:][:WarpSize] }

// rowF returns register r's 32-lane row of the float file.
func (w *Warp) rowF(r int32) []float64 { return w.regF[int(r)*WarpSize:][:WarpSize] }

// Done reports whether every thread in the warp has exited.
func (w *Warp) Done() bool { return w.done }

// AtBarrier reports whether the warp is waiting at a CTA barrier.
func (w *Warp) AtBarrier() bool { return w.atBarrier }

// ReleaseBarrier resumes a warp waiting at a barrier.
func (w *Warp) ReleaseBarrier() { w.atBarrier = false }

// top pops fully reconverged entries and returns the active stack top, or
// nil if the warp has finished.
func (w *Warp) top() *simtEntry {
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
func (w *Warp) Exec(env *Env, st *Step) error {
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
	d := &w.prog[pc]
	*st = Step{
		Instr:       &w.Kernel.Instrs[pc],
		PC:          pc,
		ActiveMask:  e.mask,
		ActiveCount: bits.OnesCount32(e.mask),
	}

	switch d.op {
	case OpBra:
		pb := w.regP[d.pred]
		if d.neg {
			pb = ^pb
		}
		taken := pb & e.mask
		notTaken := e.mask &^ taken
		switch {
		case notTaken == 0:
			e.pc = int(d.target)
		case taken == 0:
			e.pc = pc + 1
		default:
			// Divergence: the current entry becomes the reconvergence
			// entry; push the fall-through path, then the taken path.
			st.Diverged = true
			e.pc = int(d.recon)
			w.stack = append(w.stack,
				simtEntry{pc: pc + 1, rpc: int(d.recon), mask: notTaken},
				simtEntry{pc: int(d.target), rpc: int(d.recon), mask: taken},
			)
		}
		return nil

	case OpJmp:
		e.pc = int(d.target)
		return nil

	case OpBar:
		w.atBarrier = true
		e.pc = pc + 1
		st.AtBarrier = true
		return nil

	case OpExit:
		// Remove the exiting lanes from every stack entry so they never
		// resume at a reconvergence point.
		exiting := e.mask
		for i := range w.stack {
			w.stack[i].mask &^= exiting
		}
		if w.top() == nil {
			st.Done = true
		}
		return nil

	case OpLd, OpLdF, OpSt, OpStF, OpAtom:
		if err := w.execMem(env, d, e.mask, pc); err != nil {
			return err
		}
		st.Accesses = w.accessBuf
		e.pc = pc + 1
		return nil

	default:
		w.execALU(env, d, e.mask)
		e.pc = pc + 1
		return nil
	}
}

// laneLocal returns the lane's window of the warp's local-memory arena.
func (w *Warp) laneLocal(lane int) []byte {
	lo := lane * w.localBytes
	hi := lo + w.localBytes
	return w.local[lo:hi:hi]
}

// memFault wraps a lane's load/store fault with the kernel context the
// reference interpreter reports.
func (w *Warp) memFault(d *dinstr, pc, lane int, err error) error {
	return fmt.Errorf("kernel %s pc=%d (%v %v): cta=%d tid=%d: %w",
		w.Kernel.Name, pc, d.op, d.space, w.ctaID, w.baseTid+lane, err)
}

// execMem executes one warp memory instruction across the active lanes,
// recording each lane's access in accessBuf. The opcode switch sits
// outside the lane loop, and the arena is resolved once for all spaces
// except per-thread local memory.
func (w *Warp) execMem(env *Env, d *dinstr, mask uint32, pc int) error {
	w.accessBuf = w.accessBuf[:0]
	addrs := w.rowI(d.src1)
	imm := d.imm
	size := int(d.size)
	mtype := d.mtype

	var arena []byte
	perLane := d.space == SpaceLocal
	if !perLane {
		switch d.space {
		case SpaceShared:
			arena = env.Shared
		default:
			arena = env.Mem.arena(d.space)
		}
	}

	switch d.op {
	case OpLd:
		dd := w.rowI(d.dst)
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m) & 31
			addr := uint64(addrs[lane] + imm)
			if perLane {
				arena = w.laneLocal(lane)
			}
			if int(addr)+size > len(arena) {
				return w.memFault(d, pc, lane, loadFault(addr, mtype, len(arena)))
			}
			switch mtype {
			case U8:
				dd[lane] = int64(arena[addr])
			case I32:
				dd[lane] = int64(int32(binary.LittleEndian.Uint32(arena[addr:])))
			case F32:
				dd[lane] = int64(binary.LittleEndian.Uint32(arena[addr:]))
			default:
				dd[lane] = int64(binary.LittleEndian.Uint64(arena[addr:]))
			}
			w.accessBuf = append(w.accessBuf, MemAccess{Lane: lane, Addr: addr, Size: size})
		}

	case OpLdF:
		dd := w.rowF(d.dst)
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m) & 31
			addr := uint64(addrs[lane] + imm)
			if perLane {
				arena = w.laneLocal(lane)
			}
			if int(addr)+size > len(arena) {
				return w.memFault(d, pc, lane, loadFault(addr, mtype, len(arena)))
			}
			var raw uint64
			switch mtype {
			case U8:
				raw = uint64(arena[addr])
			case I32, F32:
				raw = uint64(binary.LittleEndian.Uint32(arena[addr:]))
			default:
				raw = binary.LittleEndian.Uint64(arena[addr:])
			}
			if mtype == F32 {
				dd[lane] = float64(math.Float32frombits(uint32(raw)))
			} else {
				dd[lane] = math.Float64frombits(raw)
			}
			w.accessBuf = append(w.accessBuf, MemAccess{Lane: lane, Addr: addr, Size: size})
		}

	case OpSt:
		vv := w.rowI(d.src2)
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m) & 31
			addr := uint64(addrs[lane] + imm)
			if perLane {
				arena = w.laneLocal(lane)
			}
			if int(addr)+size > len(arena) {
				return w.memFault(d, pc, lane, storeFault(addr, mtype, len(arena)))
			}
			switch mtype {
			case U8:
				arena[addr] = byte(vv[lane])
			case I32, F32:
				binary.LittleEndian.PutUint32(arena[addr:], uint32(vv[lane]))
			default:
				binary.LittleEndian.PutUint64(arena[addr:], uint64(vv[lane]))
			}
			w.accessBuf = append(w.accessBuf, MemAccess{Lane: lane, Addr: addr, Size: size, Store: true})
		}

	case OpStF:
		vv := w.rowF(d.src2)
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m) & 31
			addr := uint64(addrs[lane] + imm)
			if perLane {
				arena = w.laneLocal(lane)
			}
			var raw uint64
			if mtype == F32 {
				raw = uint64(math.Float32bits(float32(vv[lane])))
			} else {
				raw = math.Float64bits(vv[lane])
			}
			if int(addr)+size > len(arena) {
				return w.memFault(d, pc, lane, storeFault(addr, mtype, len(arena)))
			}
			switch mtype {
			case U8:
				arena[addr] = byte(raw)
			case I32, F32:
				binary.LittleEndian.PutUint32(arena[addr:], uint32(raw))
			default:
				binary.LittleEndian.PutUint64(arena[addr:], raw)
			}
			w.accessBuf = append(w.accessBuf, MemAccess{Lane: lane, Addr: addr, Size: size, Store: true})
		}

	case OpAtom:
		dd, vv := w.rowI(d.dst), w.rowI(d.src2)
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m) & 31
			addr := uint64(addrs[lane] + imm)
			if perLane {
				arena = w.laneLocal(lane)
			}
			raw, err := loadRaw(arena, addr, I32)
			if err != nil {
				return w.memFault(d, pc, lane, err)
			}
			old := int64(int32(uint32(raw)))
			if err := storeRaw(arena, addr, I32, uint64(old+vv[lane])); err != nil {
				return w.memFault(d, pc, lane, err)
			}
			dd[lane] = old
			w.accessBuf = append(w.accessBuf, MemAccess{Lane: lane, Addr: addr, Size: size, Store: true})
		}
	}
	return nil
}

// execALU executes one decoded ALU/SFU/predicate instruction across the
// active lanes: one switch on the opcode, then tight loops over the lane
// bitmask against contiguous register rows. Binary ops split their
// immediate and register forms so the operand test stays out of the lane
// loop.
func (w *Warp) execALU(env *Env, d *dinstr, mask uint32) {
	useImm, imm, fimm := d.useImm, d.imm, d.fimm

	switch d.op {
	case OpNop:
	case OpIAdd:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] + imm
			}
		} else {
			bb := w.rowI(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] + bb[l]
			}
		}
	case OpISub:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] - imm
			}
		} else {
			bb := w.rowI(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] - bb[l]
			}
		}
	case OpIMul:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] * imm
			}
		} else {
			bb := w.rowI(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] * bb[l]
			}
		}
	case OpIDiv:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			v := imm
			if !useImm {
				v = w.regI[int(d.src2)*WarpSize+l]
			}
			if v != 0 {
				dd[l] = aa[l] / v
			} else {
				dd[l] = 0
			}
		}
	case OpIRem:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			v := imm
			if !useImm {
				v = w.regI[int(d.src2)*WarpSize+l]
			}
			if v != 0 {
				dd[l] = aa[l] % v
			} else {
				dd[l] = 0
			}
		}
	case OpIMin:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = min(aa[l], imm)
			}
		} else {
			bb := w.rowI(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = min(aa[l], bb[l])
			}
		}
	case OpIMax:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = max(aa[l], imm)
			}
		} else {
			bb := w.rowI(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = max(aa[l], bb[l])
			}
		}
	case OpIAnd:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] & imm
			}
		} else {
			bb := w.rowI(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] & bb[l]
			}
		}
	case OpIOr:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] | imm
			}
		} else {
			bb := w.rowI(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] | bb[l]
			}
		}
	case OpIXor:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] ^ imm
			}
		} else {
			bb := w.rowI(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] ^ bb[l]
			}
		}
	case OpShl:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] << uint(imm)
			}
		} else {
			bb := w.rowI(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] << uint(bb[l])
			}
		}
	case OpShr:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] >> uint(imm)
			}
		} else {
			bb := w.rowI(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] >> uint(bb[l])
			}
		}
	case OpINeg:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = -aa[l]
		}
	case OpIAbs:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			if v := aa[l]; v < 0 {
				dd[l] = -v
			} else {
				dd[l] = v
			}
		}
	case OpMov:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = aa[l]
		}
	case OpMovI:
		dd := w.rowI(d.dst)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = imm
		}
	case OpFAdd:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] + fimm
			}
		} else {
			bb := w.rowF(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] + bb[l]
			}
		}
	case OpFSub:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] - fimm
			}
		} else {
			bb := w.rowF(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] - bb[l]
			}
		}
	case OpFMul:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] * fimm
			}
		} else {
			bb := w.rowF(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] * bb[l]
			}
		}
	case OpFDiv:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] / fimm
			}
		} else {
			bb := w.rowF(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = aa[l] / bb[l]
			}
		}
	case OpFMin:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = math.Min(aa[l], fimm)
			}
		} else {
			bb := w.rowF(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = math.Min(aa[l], bb[l])
			}
		}
	case OpFMax:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = math.Max(aa[l], fimm)
			}
		} else {
			bb := w.rowF(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = math.Max(aa[l], bb[l])
			}
		}
	case OpFNeg:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = -aa[l]
		}
	case OpFAbs:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = math.Abs(aa[l])
		}
	case OpFMA:
		dd, aa, bb, cc := w.rowF(d.dst), w.rowF(d.src1), w.rowF(d.src2), w.rowF(d.src3)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = aa[l]*bb[l] + cc[l]
		}
	case OpFMov:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = aa[l]
		}
	case OpFMovI:
		dd := w.rowF(d.dst)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = fimm
		}
	case OpFSqrt:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = math.Sqrt(aa[l])
		}
	case OpFExp:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = math.Exp(aa[l])
		}
	case OpFLog:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = math.Log(aa[l])
		}
	case OpFSin:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = math.Sin(aa[l])
		}
	case OpFCos:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = math.Cos(aa[l])
		}
	case OpFPow:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = math.Pow(aa[l], fimm)
			}
		} else {
			bb := w.rowF(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = math.Pow(aa[l], bb[l])
			}
		}
	case OpI2F:
		dd, aa := w.rowF(d.dst), w.rowI(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = float64(aa[l])
		}
	case OpF2I:
		dd, aa := w.rowI(d.dst), w.rowF(d.src1)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dd[l] = int64(aa[l])
		}
	case OpSetpI:
		aa := w.rowI(d.src1)
		cmp := d.cmp
		p := w.regP[d.dst]
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if cmpI(cmp, aa[l], imm) {
					p |= 1 << uint(l)
				} else {
					p &^= 1 << uint(l)
				}
			}
		} else {
			bb := w.rowI(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if cmpI(cmp, aa[l], bb[l]) {
					p |= 1 << uint(l)
				} else {
					p &^= 1 << uint(l)
				}
			}
		}
		w.regP[d.dst] = p
	case OpSetpF:
		aa := w.rowF(d.src1)
		cmp := d.cmp
		p := w.regP[d.dst]
		if useImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if cmpF(cmp, aa[l], fimm) {
					p |= 1 << uint(l)
				} else {
					p &^= 1 << uint(l)
				}
			}
		} else {
			bb := w.rowF(d.src2)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if cmpF(cmp, aa[l], bb[l]) {
					p |= 1 << uint(l)
				} else {
					p &^= 1 << uint(l)
				}
			}
		}
		w.regP[d.dst] = p
	case OpPAnd:
		w.regP[d.dst] = (w.regP[d.dst] &^ mask) | (w.regP[d.src1] & w.regP[d.src2] & mask)
	case OpPOr:
		w.regP[d.dst] = (w.regP[d.dst] &^ mask) | ((w.regP[d.src1] | w.regP[d.src2]) & mask)
	case OpPNot:
		w.regP[d.dst] = (w.regP[d.dst] &^ mask) | (^w.regP[d.src1] & mask)
	case OpSelI:
		dd, aa := w.rowI(d.dst), w.rowI(d.src1)
		p := w.regP[d.src3]
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			if p&(1<<uint(l)) != 0 {
				dd[l] = aa[l]
			} else if useImm {
				dd[l] = imm
			} else {
				dd[l] = w.regI[int(d.src2)*WarpSize+l]
			}
		}
	case OpSelF:
		dd, aa := w.rowF(d.dst), w.rowF(d.src1)
		p := w.regP[d.src3]
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			if p&(1<<uint(l)) != 0 {
				dd[l] = aa[l]
			} else if useImm {
				dd[l] = fimm
			} else {
				dd[l] = w.regF[int(d.src2)*WarpSize+l]
			}
		}
	case OpRdSp:
		dd := w.rowI(d.dst)
		switch d.sp {
		case SpecTid:
			base := int64(w.baseTid)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dd[l] = base + int64(l)
			}
		case SpecCta:
			v := int64(w.ctaID)
			for m := mask; m != 0; m &= m - 1 {
				dd[bits.TrailingZeros32(m)&31] = v
			}
		case SpecNTid:
			v := int64(env.BlockDim)
			for m := mask; m != 0; m &= m - 1 {
				dd[bits.TrailingZeros32(m)&31] = v
			}
		case SpecNCta:
			v := int64(env.GridDim)
			for m := mask; m != 0; m &= m - 1 {
				dd[bits.TrailingZeros32(m)&31] = v
			}
		}
	}
}

func cmpI(c CmpOp, a, b int64) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	default:
		return a >= b
	}
}

func cmpF(c CmpOp, a, b float64) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	default:
		return a >= b
	}
}
