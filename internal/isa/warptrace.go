package isa

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// Warp tracing: the functional half of one kernel launch — per-warp
// instruction streams, active masks and memory addresses — recorded once
// and replayed under different timing configurations. The timing
// simulator prices a warp instruction entirely from its Step (opcode
// class, active count, per-lane accesses), so a recorded stream is enough
// to drive the scheduler, coalescer, caches and DRAM model without
// re-executing the kernel.
//
// The encoding is compact on purpose, for two reasons: a whole-suite
// trace cache measured in gigabytes makes the Go heap churn pages hard
// enough to cancel replay's win, and replay itself is bound by how many
// cache lines the streams pull — the scheduler interleaves more warps
// than the hardware prefetcher tracks, so every byte saved is latency
// saved. Each warp is one sequential byte stream of steps:
//
//   - a step whose PC advances by 1..128 with no event flags and an
//     unchanged active mask — the overwhelming majority: straight-line
//     code under a stable mask — is a single byte (the advance minus
//     one, high bit clear);
//   - any other step is a 4-byte header: a flag byte with the high bit
//     set followed by the absolute 24-bit PC, and, when the flag byte
//     says the mask changed, the 4-byte active mask (masks change at
//     divergence points, not per instruction);
//   - a memory step (either form) appends one address per active lane,
//     as zigzag-varint deltas from the warp's previous access — SIMT
//     access patterns are overwhelmingly small strides across lanes and
//     loop iterations, so most addresses cost one byte instead of eight.
//
// Lane numbers are the set bits of the mask in ascending order (execMem
// visits lanes in exactly that order), the access width comes from the
// instruction's MType, and store-ness from its opcode, so none of them
// are recorded.

const (
	tracePCBits = 24
	tracePCMask = 1<<tracePCBits - 1

	// Flag byte of a full (4-byte) step header.
	traceFull     = 0x80 // discriminates full headers from compact steps
	traceBarrier  = 0x01
	traceDone     = 0x02
	traceDiverged = 0x04
	traceNewMask  = 0x08 // a 4-byte active mask follows the header

	// Largest PC advance a compact step encodes.
	traceMaxAdvance = 0x80
)

// WarpTrace is one warp's recorded stream: a view into its launch's
// shared slab.
type WarpTrace struct {
	Data []byte
}

// appendAddrDelta appends one address as a zigzag varint delta.
func appendAddrDelta(dst []byte, prev, addr uint64) []byte {
	d := int64(addr - prev)
	u := uint64(d<<1) ^ uint64(d>>63)
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

// LaunchTrace is the functional recording of one kernel launch: every
// warp of every CTA, indexed cta*WarpsPerCTA()+warp. The per-warp views
// share one launch-wide slab, so a finalized trace costs one allocation
// plus the header slice.
type LaunchTrace struct {
	Kernel *Kernel
	Launch Launch
	Warps  []WarpTrace
}

// WarpsPerCTA returns the number of warps each CTA of the launch holds.
func (lt *LaunchTrace) WarpsPerCTA() int {
	return (lt.Launch.Block + WarpSize - 1) / WarpSize
}

// Bytes reports the retained size of the trace's slab and headers.
func (lt *LaunchTrace) Bytes() int64 {
	var data int
	for i := range lt.Warps {
		data += len(lt.Warps[i].Data)
	}
	const headerSize = 24 // one WarpTrace slice header
	return int64(data) + int64(len(lt.Warps))*headerSize
}

// WarpRecorder accumulates one warp's stream while the warp executes.
// Each warp has its own recorder.
type WarpRecorder struct {
	data     []byte
	prevPC   int // -1 before the first step, so PC 0 is a compact advance
	prevMask uint32
	prevAddr uint64
}

// Record appends one executed step. The caller guarantees st describes
// an instruction of the recorder's kernel (PC within the stream).
func (r *WarpRecorder) Record(st *Step) {
	adv := st.PC - r.prevPC
	r.prevPC = st.PC
	if !st.AtBarrier && !st.Done && !st.Diverged && st.ActiveMask == r.prevMask &&
		adv >= 1 && adv <= traceMaxAdvance {
		r.data = append(r.data, byte(adv-1))
	} else {
		fb := byte(traceFull)
		if st.AtBarrier {
			fb |= traceBarrier
		}
		if st.Done {
			fb |= traceDone
		}
		if st.Diverged {
			fb |= traceDiverged
		}
		if st.ActiveMask != r.prevMask {
			fb |= traceNewMask
		}
		r.data = append(r.data, fb, byte(st.PC), byte(st.PC>>8), byte(st.PC>>16))
		if fb&traceNewMask != 0 {
			r.data = binary.LittleEndian.AppendUint32(r.data, st.ActiveMask)
			r.prevMask = st.ActiveMask
		}
	}
	for i := range st.Accesses {
		a := st.Accesses[i].Addr
		r.data = appendAddrDelta(r.data, r.prevAddr, a)
		r.prevAddr = a
	}
}

// Recording buffers are recycled across warps and launches: growth slack
// from recording never lingers in finalized traces (those are compacted
// into an exact-size slab), and the next recording starts from warm
// buffers.
var traceBufPool = sync.Pool{New: func() any { return &[]byte{} }}

// LaunchRecorder records one kernel launch CTA by CTA, holding the
// recorders of one CTA at a time: BeginCTA hands them out, and EndCTA
// moves the CTA's streams into Trace, where replay warps may read them
// while later CTAs are still being recorded. At launch end Finalize
// compacts the launch into one exact-size slab, or Release drops it.
type LaunchRecorder struct {
	lt    *LaunchTrace
	ctaID int
	warps []WarpRecorder // the CTA being recorded
}

// NewLaunchRecorder prepares recording for one launch. It fails when the
// kernel's PCs cannot be packed into a step header (far beyond any real
// kernel here).
func NewLaunchRecorder(k *Kernel, launch Launch) (*LaunchRecorder, error) {
	if len(k.Instrs) > tracePCMask {
		return nil, fmt.Errorf("isa: kernel %s has %d instructions; trace encoding holds %d", k.Name, len(k.Instrs), tracePCMask)
	}
	lt := &LaunchTrace{Kernel: k, Launch: launch}
	wpc := lt.WarpsPerCTA()
	lt.Warps = make([]WarpTrace, launch.Grid*wpc)
	return &LaunchRecorder{lt: lt, warps: make([]WarpRecorder, wpc)}, nil
}

// BeginCTA starts recording block ctaID and returns one recorder per
// warp of the block, indexed by warp. They are valid until EndCTA.
func (r *LaunchRecorder) BeginCTA(ctaID int) []WarpRecorder {
	r.ctaID = ctaID
	for i := range r.warps {
		r.warps[i] = WarpRecorder{data: (*traceBufPool.Get().(*[]byte))[:0], prevPC: -1}
	}
	return r.warps
}

// EndCTA stores the streams recorded since BeginCTA as the block's warps
// in Trace.
func (r *LaunchRecorder) EndCTA() {
	base := r.ctaID * len(r.warps)
	for i := range r.warps {
		r.lt.Warps[base+i] = WarpTrace{Data: r.warps[i].data}
		r.warps[i] = WarpRecorder{}
	}
}

// Trace returns the launch as recorded so far: a block's warps hold
// their streams once its EndCTA has run and are empty before. A reader
// on another goroutine must order its reads of a block after that
// EndCTA.
func (r *LaunchRecorder) Trace() *LaunchTrace { return r.lt }

// Finalize compacts the recorded streams into a LaunchTrace backed by
// one exact-size slab and returns the recording buffers to the pool.
// The recorder and its Trace must not be used afterwards.
func (r *LaunchRecorder) Finalize() *LaunchTrace {
	var n int
	for i := range r.lt.Warps {
		n += len(r.lt.Warps[i].Data)
	}
	slab := make([]byte, 0, n)
	lt := &LaunchTrace{Kernel: r.lt.Kernel, Launch: r.lt.Launch, Warps: make([]WarpTrace, len(r.lt.Warps))}
	for i := range r.lt.Warps {
		d0 := len(slab)
		slab = append(slab, r.lt.Warps[i].Data...)
		lt.Warps[i] = WarpTrace{Data: slab[d0:len(slab):len(slab)]}
	}
	r.Release()
	return lt
}

// Release returns the recording buffers to the pool without building a
// trace. The recorder and its Trace must not be used afterwards; calling
// Release again, or after Finalize, is a no-op.
func (r *LaunchRecorder) Release() {
	for i := range r.lt.Warps {
		if d := r.lt.Warps[i].Data; d != nil {
			buf := d[:0]
			traceBufPool.Put(&buf)
		}
		r.lt.Warps[i] = WarpTrace{}
	}
}

// ReplayWarp drives the timing simulator from a recorded stream: Exec
// reconstructs each Step from the trace instead of executing the kernel,
// so replay touches no register files and no memory arenas. It satisfies
// the same WarpExec contract as Warp and must be scheduled exactly like
// one — the recorded stream already ends every warp with its exit, and
// barriers park the warp until ReleaseBarrier just as in live execution.
//
// A ReplayWarp reads its trace view but never writes it, so any number
// of replays may share one LaunchTrace concurrently.
type ReplayWarp struct {
	kernel   *Kernel
	data     []byte
	pos      int
	prevPC   int // -1 before the first step, mirroring the recorder
	prevMask uint32
	prevAddr uint64

	atBarrier bool
	done      bool
	accessBuf [WarpSize]MemAccess
}

var _ WarpExec = (*ReplayWarp)(nil)

// Done reports whether every thread in the warp has exited.
func (w *ReplayWarp) Done() bool { return w.done }

// AtBarrier reports whether the warp is waiting at a CTA barrier.
func (w *ReplayWarp) AtBarrier() bool { return w.atBarrier }

// ReleaseBarrier resumes a warp waiting at a barrier.
func (w *ReplayWarp) ReleaseBarrier() { w.atBarrier = false }

func (w *ReplayWarp) exhausted() error {
	return fmt.Errorf("isa: replay of kernel %s exhausted its trace (%d bytes) with the warp still live", w.kernel.Name, len(w.data))
}

// Exec reproduces the warp's next recorded step. It mirrors Warp.Exec's
// contract: not callable at a barrier, and a no-op Done step once the
// warp has finished.
func (w *ReplayWarp) Exec(env *Env, st *Step) error {
	if w.done {
		*st = Step{Done: true}
		return nil
	}
	if w.atBarrier {
		*st = Step{}
		return fmt.Errorf("isa: Exec on warp waiting at barrier")
	}
	d, p := w.data, w.pos
	if p >= len(d) {
		return w.exhausted()
	}
	b := d[p]
	var pc int
	var fb byte
	mask := w.prevMask
	if b < traceFull {
		// Compact step: PC advance, no flags, unchanged mask.
		pc = w.prevPC + 1 + int(b)
		p++
	} else {
		if p+4 > len(d) {
			return w.exhausted()
		}
		fb = b
		pc = int(d[p+1]) | int(d[p+2])<<8 | int(d[p+3])<<16
		p += 4
		if fb&traceNewMask != 0 {
			if p+4 > len(d) {
				return w.exhausted()
			}
			mask = binary.LittleEndian.Uint32(d[p:])
			p += 4
			w.prevMask = mask
		}
	}
	w.prevPC = pc
	in := &w.kernel.Instrs[pc]
	*st = Step{
		Instr:       in,
		PC:          pc,
		ActiveMask:  mask,
		ActiveCount: bits.OnesCount32(mask),
		AtBarrier:   fb&traceBarrier != 0,
		Done:        fb&traceDone != 0,
		Diverged:    fb&traceDiverged != 0,
	}
	if in.Op.Class() == ClassMem {
		size := in.MType.Size()
		store := in.Op == OpSt || in.Op == OpStF || in.Op == OpAtom
		// Hot loop: one decoded access per set mask bit, filled by index.
		prev := w.prevAddr
		buf := w.accessBuf[:st.ActiveCount]
		i := 0
		for m := mask; m != 0; m &= m - 1 {
			// Decode one zigzag-varint delta (the single-byte case is by
			// far the common one).
			var u uint64
			if p < len(d) && d[p] < 0x80 {
				u = uint64(d[p])
				p++
			} else {
				var shift uint
				for {
					if p >= len(d) {
						return w.exhausted()
					}
					b := d[p]
					p++
					u |= uint64(b&0x7f) << shift
					if b < 0x80 {
						break
					}
					shift += 7
				}
			}
			prev += uint64(int64(u>>1) ^ -int64(u&1))
			buf[i] = MemAccess{Lane: bits.TrailingZeros32(m) & 31, Addr: prev, Size: size, Store: store}
			i++
		}
		w.prevAddr = prev
		st.Accesses = buf
	}
	w.pos = p
	if st.AtBarrier {
		w.atBarrier = true
	}
	if st.Done {
		w.done = true
	}
	return nil
}

// MakeReplayCTA instantiates block ctaID of a recorded launch with
// replay warps. Its environment carries only the launch geometry: replay
// never touches memory, so no arenas are allocated.
func MakeReplayCTA(lt *LaunchTrace, ctaID int) *CTA {
	env := &Env{BlockDim: lt.Launch.Block, GridDim: lt.Launch.Grid}
	wpc := lt.WarpsPerCTA()
	cta := &CTA{Index: ctaID, Env: env, Warps: make([]WarpExec, 0, wpc)}
	warps := make([]ReplayWarp, wpc)
	for wi := 0; wi < wpc; wi++ {
		wt := &lt.Warps[ctaID*wpc+wi]
		w := &warps[wi]
		w.kernel = lt.Kernel
		w.data = wt.Data
		w.prevPC = -1
		w.done = len(wt.Data) == 0
		cta.Warps = append(cta.Warps, w)
	}
	return cta
}
