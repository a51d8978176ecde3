// Package trace is the source-level stand-in for Pin: workloads are
// written against an instrumentation context that records every (modeled)
// instruction — ALU, branch, load, store — with data addresses and code
// locations. A Harness runs the workload's serial and parallel regions,
// interleaves the per-thread event streams round-robin (deterministically),
// and feeds them to analysis consumers such as the shared-cache simulator
// in internal/cachesim.
package trace

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
)

// Kind classifies a modeled instruction.
type Kind uint8

// Instruction kinds.
const (
	KindALU Kind = iota
	KindBranch
	KindLoad
	KindStore
)

func (k Kind) String() string {
	return [...]string{"alu", "branch", "load", "store"}[k]
}

// Event is one instrumentation record. ALU and branch events may carry a
// Count > 1 (a run of consecutive instructions); memory events always have
// Count == 1 and a valid Addr/Size.
type Event struct {
	Addr  uint64
	PC    uint64
	Count uint32
	Size  uint8
	Kind  Kind
	Tid   uint8
}

// BatchConsumer receives the interleaved event stream in contiguous
// chunks. Batches alias harness-owned buffers that are recycled after
// the enclosing region completes, so implementations must not retain
// the slice (or pointers into it) beyond the call.
type BatchConsumer interface {
	Events(batch []Event)
}

// CodeBlock models a static code region (a function or hot loop). Its
// extent feeds the instruction-footprint analysis (Figure 11) and its
// address range provides event PCs.
type CodeBlock struct {
	Name   string
	Addr   uint64
	Instrs int // static instruction count (4 bytes each)

	touched bool
}

// instrBytes is the modeled instruction size.
const instrBytes = 4

// codePageAlign keeps code blocks from sharing 64-byte blocks.
const codePageAlign = 64

// Harness owns the modeled address spaces, the code-block table, and the
// consumers. It is not safe for concurrent use; regions run threads
// sequentially and deterministically.
type Harness struct {
	Threads int

	consumers []BatchConsumer
	dataTop   uint64
	codeTop   uint64
	blocks    []*CodeBlock

	// Granularity is the number of events per thread per round-robin
	// turn when interleaving a parallel region.
	Granularity int

	// Events and Batches count the records and batches delivered to the
	// consumers — plain fields, since a harness is single-goroutine by
	// contract. The core layer folds them into its registry per workload.
	Events  uint64
	Batches uint64

	serialBlock *CodeBlock
	batchHist   *obs.Histogram
}

// NewHarness builds a harness for the given thread count.
func NewHarness(threads int, consumers ...BatchConsumer) *Harness {
	if threads < 1 || threads > 64 {
		panic(fmt.Sprintf("trace: invalid thread count %d", threads))
	}
	return &Harness{
		Threads:     threads,
		dataTop:     1 << 20, // data space starts at 1 MiB
		codeTop:     1 << 30, // code space is disjoint from data
		Granularity: 64,
		// Clipped, so AddBatchConsumer never appends into the caller's array.
		consumers: slices.Clip(consumers),
	}
}

// AddBatchConsumer registers one more consumer after construction.
func (h *Harness) AddBatchConsumer(bc BatchConsumer) {
	h.consumers = append(h.consumers, bc)
}

// Alloc reserves a modeled data region of size bytes, page-aligned, and
// returns its base address. Workloads compute event addresses from it.
func (h *Harness) Alloc(size int) uint64 {
	const page = 4096
	base := (h.dataTop + page - 1) &^ (page - 1)
	h.dataTop = base + uint64(size)
	return base
}

// Code registers a static code block of the given instruction count.
func (h *Harness) Code(name string, instrs int) *CodeBlock {
	if instrs <= 0 {
		panic("trace: code block must have instructions")
	}
	base := (h.codeTop + codePageAlign - 1) &^ (codePageAlign - 1)
	h.codeTop = base + uint64(instrs*instrBytes)
	b := &CodeBlock{Name: name, Addr: base, Instrs: instrs}
	h.blocks = append(h.blocks, b)
	return b
}

// Blocks returns all registered code blocks (touched and untouched).
func (h *Harness) Blocks() []*CodeBlock { return h.blocks }

// TouchedInstrBlocks counts the unique 64-byte instruction blocks of all
// executed code blocks — the Figure 11 metric.
func (h *Harness) TouchedInstrBlocks() uint64 {
	var total uint64
	for _, b := range h.blocks {
		if !b.touched {
			continue
		}
		bytes := uint64(b.Instrs * instrBytes)
		total += (bytes + 63) / 64
	}
	return total
}

// Ctx is the per-thread instrumentation context.
type Ctx struct {
	h     *Harness
	tid   uint8
	block *CodeBlock
	pcOff uint64
	buf   []Event
	pos   int // merge cursor into buf during Parallel interleaving
}

// At sets the executing code block; subsequent events take PCs from it.
func (c *Ctx) At(b *CodeBlock) {
	b.touched = true
	c.block = b
	c.pcOff = 0
}

func (c *Ctx) pc() uint64 {
	if c.block == nil {
		return 0
	}
	pc := c.block.Addr + c.pcOff
	c.pcOff += instrBytes
	if c.pcOff >= uint64(c.block.Instrs*instrBytes) {
		c.pcOff = 0
	}
	return pc
}

// Load records a load of size bytes at addr.
func (c *Ctx) Load(addr uint64, size int) {
	c.buf = append(c.buf, Event{Kind: KindLoad, Addr: addr, Size: uint8(size), Count: 1, PC: c.pc(), Tid: c.tid})
}

// Store records a store of size bytes at addr.
func (c *Ctx) Store(addr uint64, size int) {
	c.buf = append(c.buf, Event{Kind: KindStore, Addr: addr, Size: uint8(size), Count: 1, PC: c.pc(), Tid: c.tid})
}

// ALU records n arithmetic/logic instructions.
func (c *Ctx) ALU(n int) {
	if n <= 0 {
		return
	}
	c.buf = append(c.buf, Event{Kind: KindALU, Count: uint32(n), PC: c.pc(), Tid: c.tid})
}

// Branch records n branch instructions.
func (c *Ctx) Branch(n int) {
	if n <= 0 {
		return
	}
	c.buf = append(c.buf, Event{Kind: KindBranch, Count: uint32(n), PC: c.pc(), Tid: c.tid})
}

// emitChunk bounds the batch size of serial emission so a chunk stays
// cache-resident while each consumer scans it.
const emitChunk = 4096

// bufPool recycles per-thread event buffers across regions, harnesses
// and worker goroutines.
var bufPool = sync.Pool{New: func() any {
	b := make([]Event, 0, emitChunk)
	return &b
}}

func getBuf() []Event {
	return (*bufPool.Get().(*[]Event))[:0]
}

func putBuf(b []Event) {
	bufPool.Put(&b)
}

// SetObs attaches a metrics registry: delivered batch sizes then feed the
// cpu.trace.batch_size histogram (Events/Batches totals stay plain fields
// either way).
func (h *Harness) SetObs(r *obs.Registry) {
	h.batchHist = r.Histogram("cpu.trace.batch_size")
}

func (h *Harness) emitBatch(batch []Event) {
	if len(batch) == 0 {
		return
	}
	h.Events += uint64(len(batch))
	h.Batches++
	h.batchHist.Observe(uint64(len(batch)))
	for _, cons := range h.consumers {
		cons.Events(batch)
	}
}

// Serial runs f as thread 0, streaming its events in program order.
func (h *Harness) Serial(f func(c *Ctx)) {
	c := &Ctx{h: h, tid: 0, block: h.serialBlock, buf: getBuf()}
	f(c)
	h.serialBlock = c.block
	for lo := 0; lo < len(c.buf); lo += emitChunk {
		hi := lo + emitChunk
		if hi > len(c.buf) {
			hi = len(c.buf)
		}
		h.emitBatch(c.buf[lo:hi])
	}
	putBuf(c.buf)
}

// Parallel runs f once per thread (sequentially, for determinism), then
// interleaves the recorded per-thread streams round-robin at the harness
// granularity — modeling the concurrent execution of an OpenMP parallel
// region on a shared cache. Each turn's slice is handed to the consumers
// as one batch, and threads whose streams are exhausted drop out of the
// rotation instead of being rescanned every round.
func (h *Harness) Parallel(f func(tid int, c *Ctx)) {
	ctxs := make([]*Ctx, h.Threads)
	for t := 0; t < h.Threads; t++ {
		c := &Ctx{h: h, tid: uint8(t), buf: getBuf()}
		f(t, c)
		ctxs[t] = c
	}
	g := h.Granularity
	if g < 1 {
		g = 1
	}
	active := make([]*Ctx, 0, h.Threads)
	for _, c := range ctxs {
		if len(c.buf) > 0 {
			active = append(active, c)
		}
	}
	for len(active) > 0 {
		live := active[:0]
		for _, c := range active {
			n := g
			if rest := len(c.buf) - c.pos; n > rest {
				n = rest
			}
			h.emitBatch(c.buf[c.pos : c.pos+n])
			c.pos += n
			if c.pos < len(c.buf) {
				live = append(live, c)
			}
		}
		active = live
	}
	for _, c := range ctxs {
		putBuf(c.buf)
	}
}
