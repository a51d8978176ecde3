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
// class, active count, addresses), so a recorded stream is enough to
// drive the scheduler, coalescer, caches and DRAM model without
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
//   - a memory step (either form) then records its active lanes'
//     addresses, led by a mode byte.
//
// SIMT access is overwhelmingly strided across lanes, so most memory
// steps record a base and a stride however many lanes are active. Values
// are zigzag varints, and a base is a delta from the warp's previous
// address: 0 before its first memory step, then that step's base, or its
// last lane's address after a per-lane record. The modes, with lane L's
// address:
//
//   - addrStride, one stride across the warp: the lane-0 base, then the
//     stride; base + L*stride (stride 0 is a broadcast);
//   - addrHalf, one stride within each half-warp: the lane-0 base, the
//     stride, then the second half-warp's offset from the first;
//     base + (L mod 16)*stride, plus the offset for L ≥ 16;
//   - addrLanes, the fallback: one delta per active lane, each from the
//     address before it.
//
// The recorder writes the first mode that reproduces every active lane's
// address exactly. Lane numbers are the set bits of the mask in ascending
// order (execMem visits lanes in exactly that order), the access width
// comes from the instruction's MType, and store-ness from its opcode, so
// none of them are recorded. Replay hands the two strided modes to the
// timing model as they are recorded, as a strided Step that is priced
// from its base and stride; only addrLanes is decoded lane by lane.

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

// Mode byte of a memory step's address record.
const (
	addrStride = iota // lane-0 base, stride
	addrHalf          // lane-0 base, lane stride, second-half offset
	addrLanes         // one delta per active lane
)

// WarpTrace is one warp's recorded stream: a view into its launch's
// shared slab.
type WarpTrace struct {
	Data []byte
}

func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

// stridedAddr is lane's address in a strided record; a warp stride is
// the half-warp form whose offset is 16 strides.
func stridedAddr(base, stride, off uint64, lane int) uint64 {
	return base + uint64(lane&15)*stride + uint64(lane>>4)*off
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
// an instruction of the recorder's kernel (PC within the stream) and,
// for a memory instruction, one access per active lane in ascending lane
// order, as Warp.Exec reports them.
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
	if st.Instr.Op.Class() == ClassMem {
		r.recordAddrs(st.Accesses)
	}
}

// recordAddrs appends a memory step's address record in the first mode
// that reproduces every access.
func (r *WarpRecorder) recordAddrs(acc []MemAccess) {
	if n := len(acc); n > 0 {
		stride, ok := uint64(0), true
		if n > 1 {
			stride, ok = laneStride(&acc[0], &acc[1])
		}
		base := acc[0].Addr - uint64(acc[0].Lane)*stride
		if ok && stridedFits(acc, base, stride, stride<<4) {
			r.appendStrided(addrStride, base, stride)
			return
		}
		// The half-warp form needs both halves active: with one, the warp
		// form above derived the same stride and already failed.
		h := 0
		for h < n && acc[h].Lane < 16 {
			h++
		}
		if h > 0 && h < n {
			stride, ok = 0, true
			switch {
			case h > 1:
				stride, ok = laneStride(&acc[0], &acc[1])
			case n-h > 1:
				stride, ok = laneStride(&acc[h], &acc[h+1])
			}
			base = acc[0].Addr - uint64(acc[0].Lane)*stride
			off := acc[h].Addr - stridedAddr(base, stride, 0, acc[h].Lane)
			if ok && stridedFits(acc, base, stride, off) {
				r.appendStrided(addrHalf, base, stride)
				r.data = binary.AppendUvarint(r.data, zigzag(off))
				return
			}
		}
	}
	r.data = append(r.data, addrLanes)
	for i := range acc {
		a := acc[i].Addr
		r.data = binary.AppendUvarint(r.data, zigzag(a-r.prevAddr))
		r.prevAddr = a
	}
}

// appendStrided appends a strided record's mode, base and stride; the
// base becomes the warp's previous address.
func (r *WarpRecorder) appendStrided(mode byte, base, stride uint64) {
	r.data = append(r.data, mode)
	r.data = binary.AppendUvarint(r.data, zigzag(base-r.prevAddr))
	r.data = binary.AppendUvarint(r.data, zigzag(stride))
	r.prevAddr = base
}

// laneStride returns the per-lane stride from a's address to b's (b a
// later lane), and whether their lane distance divides it exactly.
func laneStride(a, b *MemAccess) (uint64, bool) {
	d, k := int64(b.Addr-a.Addr), int64(b.Lane-a.Lane)
	return uint64(d / k), d%k == 0
}

// stridedFits reports whether a strided record of base, stride and
// offset reproduces every access.
func stridedFits(acc []MemAccess, base, stride, off uint64) bool {
	for i := range acc {
		if stridedAddr(base, stride, off, acc[i].Lane) != acc[i].Addr {
			return false
		}
	}
	return true
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
// of replays may share one LaunchTrace concurrently. It holds no access
// buffer: Exec decodes a memory step into the caller's Step (see Exec).
type ReplayWarp struct {
	kernel   *Kernel
	data     []byte
	pos      int
	prevPC   int // -1 before the first step, mirroring the recorder
	prevMask uint32
	prevAddr uint64

	atBarrier bool
	done      bool
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

// corrupt reports bytes at pos that no recorder writes.
func (w *ReplayWarp) corrupt(pos int, format string, args ...any) error {
	return fmt.Errorf("isa: replay of kernel %s: %s at byte %d of its trace", w.kernel.Name, fmt.Sprintf(format, args...), pos)
}

// Exec reproduces the warp's next recorded step. It mirrors Warp.Exec's
// contract: not callable at a barrier, and a no-op Done step once the
// warp has finished. A memory step comes back in its record's form: a
// stride record as a strided Step (see Step), which is never expanded
// here, and a per-lane record as accesses decoded into the backing array
// of st.Accesses, grown to WarpSize when it is shorter, so they stay
// valid until the next Exec into the same Step; concurrent replays must
// pass Steps of their own. Bytes that do not decode are an error, never
// a panic, and every step consumes at least one byte.
func (w *ReplayWarp) Exec(env *Env, st *Step) error {
	if w.done {
		*st = Step{Done: true, Accesses: st.Accesses[:0]}
		return nil
	}
	if w.atBarrier {
		*st = Step{Accesses: st.Accesses[:0]}
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
		}
	}
	if pc >= len(w.kernel.Instrs) {
		return w.corrupt(w.pos, "PC %d outside the kernel's %d instructions", pc, len(w.kernel.Instrs))
	}
	in := &w.kernel.Instrs[pc]
	// Field by field: a Step literal is built in a temporary and copied
	// whole, which costs more than the stores on this per-step path.
	st.Instr = in
	st.PC = pc
	st.ActiveMask = mask
	st.ActiveCount = bits.OnesCount32(mask)
	st.Accesses = st.Accesses[:0]
	st.Base, st.Stride, st.HalfOff = 0, 0, 0
	st.Strided = false
	st.AtBarrier = fb&traceBarrier != 0
	st.Done = fb&traceDone != 0
	st.Diverged = fb&traceDiverged != 0
	if in.Op.Class() == ClassMem {
		var err error
		if p, err = w.decodeAddrs(d, p, st); err != nil {
			return err
		}
	}
	w.pos = p
	w.prevPC = pc
	w.prevMask = mask
	if st.AtBarrier {
		w.atBarrier = true
	}
	if st.Done {
		w.done = true
	}
	return nil
}

// decodeAddrs decodes the address record at d[p:] into st, whose mask
// and active count are set: a stride record into its strided fields, a
// per-lane record into Accesses, one access per set bit of the mask. It
// returns the position after the record.
func (w *ReplayWarp) decodeAddrs(d []byte, p int, st *Step) (int, error) {
	if p >= len(d) {
		return p, w.exhausted()
	}
	mode := d[p]
	p++
	switch mode {
	case addrStride, addrHalf:
		var v [3]uint64 // base delta, stride, second-half offset
		n := 2
		if mode == addrHalf {
			n = 3
		}
		for j := 0; j < n; j++ {
			var err error
			if v[j], p, err = w.varint(d, p); err != nil {
				return p, err
			}
		}
		base, stride, off := w.prevAddr+v[0], v[1], v[2]
		if mode == addrStride {
			off = stride << 4
		}
		st.Strided = true
		st.Base, st.Stride, st.HalfOff = base, stride, off
		w.prevAddr = base
		return p, nil
	case addrLanes:
		buf := st.Accesses
		if cap(buf) < WarpSize {
			buf = make([]MemAccess, WarpSize)
		}
		buf = buf[:st.ActiveCount]
		// Hot loop: one decoded access per set mask bit, filled by index.
		prev := w.prevAddr
		i := 0
		for m := st.ActiveMask; m != 0; m &= m - 1 {
			// Decode one delta inline: a call here would spill the loop's
			// registers on every lane. The single-byte delta is by far the
			// common case.
			var u uint64
			if p < len(d) && d[p] < 0x80 {
				u = uint64(d[p])
				p++
			} else {
				for shift := uint(0); ; shift += 7 {
					if p >= len(d) {
						return p, w.exhausted()
					}
					if shift > 63 {
						return p, w.corrupt(p, "varint overflows 64 bits")
					}
					b := d[p]
					p++
					u |= uint64(b&0x7f) << shift
					if b < 0x80 {
						break
					}
				}
			}
			prev += unzigzag(u)
			buf[i] = MemAccess{Lane: bits.TrailingZeros32(m), Addr: prev}
			i++
		}
		st.Accesses = buf
		w.prevAddr = prev
		return p, nil
	}
	return p, w.corrupt(p-1, "unknown address mode %#x", mode)
}

// expandStrided fills buf with the accesses of mask's lanes under a
// strided record. A full warp, by far the common mask, walks each
// half-warp by adding the stride.
func expandStrided(buf []MemAccess, mask uint32, base, stride, off uint64) {
	if mask == 1<<WarpSize-1 {
		buf = buf[:WarpSize]
		for h, a := range [2]uint64{base, base + off} {
			for lane := h * 16; lane < h*16+16; lane++ {
				buf[lane] = MemAccess{Lane: lane, Addr: a}
				a += stride
			}
		}
		return
	}
	i := 0
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		buf[i] = MemAccess{Lane: lane, Addr: stridedAddr(base, stride, off, lane)}
		i++
	}
}

// varint decodes the zigzag varint at d[p:] (p ≤ len(d)) and returns it
// with the position after it.
func (w *ReplayWarp) varint(d []byte, p int) (uint64, int, error) {
	u, n := binary.Uvarint(d[p:])
	switch {
	case n == 0:
		return 0, p, w.exhausted()
	case n < 0:
		return 0, p, w.corrupt(p, "varint overflows 64 bits")
	}
	return unzigzag(u), p + n, nil
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
