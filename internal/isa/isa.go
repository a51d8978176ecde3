// Package isa defines a small PTX-like virtual instruction set for the GPU
// timing simulator in internal/gpusim.
//
// Kernels are built with a Builder that provides structured control flow
// (If/While/For). Structured control flow lets every divergent branch carry
// its reconvergence PC (the immediate post-dominator), which the warp
// executor uses to drive a classic SIMT reconvergence stack.
//
// The ISA has three per-thread register files: integer (int64), float
// (float64) and predicate (bool). Memory is byte-addressed and split into
// the spaces a CUDA-capable GPU exposes: global, shared, constant, texture,
// parameter and local.
package isa

import (
	"fmt"
	"sync"
)

// Space identifies a memory space. The timing model prices each space
// differently (shared-memory banks, constant/texture caches, DRAM).
type Space uint8

// Memory spaces.
const (
	SpaceNone Space = iota
	SpaceGlobal
	SpaceShared
	SpaceConst
	SpaceTex
	SpaceParam
	SpaceLocal
)

// NumSpaces is the number of Space values (including SpaceNone); dense
// per-space tables (e.g. gpusim's memory-operation counters) are sized
// by it.
const NumSpaces = int(SpaceLocal) + 1

func (s Space) String() string {
	switch s {
	case SpaceGlobal:
		return "global"
	case SpaceShared:
		return "shared"
	case SpaceConst:
		return "const"
	case SpaceTex:
		return "tex"
	case SpaceParam:
		return "param"
	case SpaceLocal:
		return "local"
	}
	return "none"
}

// MemType is the value type of a memory access.
type MemType uint8

// Memory access types.
const (
	U8 MemType = iota
	I32
	I64
	F32
	F64
)

// Size returns the access width in bytes.
func (t MemType) Size() int {
	switch t {
	case U8:
		return 1
	case I32, F32:
		return 4
	default:
		return 8
	}
}

// CmpOp is a comparison kind used by SETP instructions.
type CmpOp uint8

// Comparison kinds.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (c CmpOp) String() string {
	return [...]string{"eq", "ne", "lt", "le", "gt", "ge"}[c]
}

// Special identifies a special (read-only) hardware register.
type Special uint8

// Special registers. The ISA uses a flattened 1-D thread geometry; kernels
// derive 2-D indices arithmetically, which preserves the memory behavior of
// their CUDA counterparts.
const (
	SpecTid  Special = iota // thread index within the block
	SpecCta                 // block index within the grid
	SpecNTid                // block dimension (threads per block)
	SpecNCta                // grid dimension (blocks per grid)
)

// Op is an instruction opcode.
type Op uint16

// Opcodes.
const (
	OpNop Op = iota

	// Integer ALU.
	OpIAdd
	OpISub
	OpIMul
	OpIDiv
	OpIRem
	OpIMin
	OpIMax
	OpIAnd
	OpIOr
	OpIXor
	OpShl
	OpShr
	OpINeg
	OpIAbs
	OpMov  // integer register move
	OpMovI // integer immediate load

	// Float ALU.
	OpFAdd
	OpFSub
	OpFMul
	OpFMin
	OpFMax
	OpFNeg
	OpFAbs
	OpFMA // dst = src1*src2 + src3
	OpFMov
	OpFMovI

	// Special-function unit (transcendental / division) operations.
	OpFDiv
	OpFSqrt
	OpFExp
	OpFLog
	OpFSin
	OpFCos
	OpFPow

	// Conversions.
	OpI2F
	OpF2I

	// Predicates.
	OpSetpI // integer compare -> predicate
	OpSetpF // float compare -> predicate
	OpPAnd
	OpPOr
	OpPNot
	OpSelI // dst = pred ? src1 : src2 (integer)
	OpSelF // dst = pred ? src1 : src2 (float)

	// Memory.
	OpLd   // integer-typed load (U8/I32/I64)
	OpLdF  // float-typed load (F32/F64)
	OpSt   // integer-typed store
	OpStF  // float-typed store
	OpAtom // atomic integer add; Dst receives the old value

	// Control.
	OpRdSp // read special register
	OpBra  // conditional branch (divergent; carries reconvergence PC)
	OpJmp  // unconditional branch (non-divergent)
	OpBar  // CTA-wide barrier
	OpExit // thread exit
)

// Class groups opcodes by the functional unit that executes them; the
// timing model assigns issue costs and latencies per class.
type Class uint8

// Instruction classes.
const (
	ClassALU Class = iota
	ClassSFU
	ClassMem
	ClassCtl
	ClassBar
	ClassExit
)

// Class returns the functional-unit class of op.
func (op Op) Class() Class {
	switch op {
	case OpFDiv, OpFSqrt, OpFExp, OpFLog, OpFSin, OpFCos, OpFPow:
		return ClassSFU
	case OpLd, OpLdF, OpSt, OpStF, OpAtom:
		return ClassMem
	case OpBra, OpJmp:
		return ClassCtl
	case OpBar:
		return ClassBar
	case OpExit:
		return ClassExit
	default:
		return ClassALU
	}
}

func (op Op) String() string {
	names := map[Op]string{
		OpNop: "nop", OpIAdd: "iadd", OpISub: "isub", OpIMul: "imul",
		OpIDiv: "idiv", OpIRem: "irem", OpIMin: "imin", OpIMax: "imax",
		OpIAnd: "iand", OpIOr: "ior", OpIXor: "ixor", OpShl: "shl",
		OpShr: "shr", OpINeg: "ineg", OpIAbs: "iabs", OpMov: "mov",
		OpMovI: "movi", OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul",
		OpFMin: "fmin", OpFMax: "fmax", OpFNeg: "fneg", OpFAbs: "fabs",
		OpFMA: "fma", OpFMov: "fmov", OpFMovI: "fmovi", OpFDiv: "fdiv",
		OpFSqrt: "fsqrt", OpFExp: "fexp", OpFLog: "flog", OpFSin: "fsin",
		OpFCos: "fcos", OpFPow: "fpow", OpI2F: "i2f", OpF2I: "f2i",
		OpSetpI: "setp.i", OpSetpF: "setp.f", OpPAnd: "pand", OpPOr: "por",
		OpPNot: "pnot", OpSelI: "sel.i", OpSelF: "sel.f", OpLd: "ld",
		OpLdF: "ld.f", OpSt: "st", OpStF: "st.f", OpAtom: "atom.add",
		OpRdSp: "rdsp", OpBra: "bra", OpJmp: "jmp", OpBar: "bar.sync",
		OpExit: "exit",
	}
	if n, ok := names[op]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint16(op))
}

// Instr is a single decoded instruction. Register fields index into the
// integer, float or predicate file depending on the opcode.
type Instr struct {
	Op   Op
	Dst  int // destination register
	Src1 int // first source register
	Src2 int // second source register
	Src3 int // third source (FMA addend, SEL predicate)

	Imm    int64   // integer immediate (also load/store displacement)
	FImm   float64 // float immediate
	UseImm bool    // Src2 is replaced by Imm/FImm

	Cmp CmpOp // SETP comparison kind

	Space Space   // memory space for loads/stores/atomics
	MType MemType // access type for loads/stores/atomics

	Pred   int  // predicate register for BRA
	Neg    bool // negate Pred for BRA
	Target int  // branch target PC
	Recon  int  // reconvergence PC (immediate post-dominator)

	Sp Special // special register for RDSP
}

// Kernel is a compiled kernel: an instruction sequence plus its static
// resource requirements, which the dispatcher uses for occupancy limits.
type Kernel struct {
	Name        string
	Instrs      []Instr
	NumI        int // integer virtual registers per thread
	NumF        int // float virtual registers per thread
	NumP        int // predicate registers per thread
	PhysI       int // peak live integer registers (allocation demand)
	PhysF       int // peak live float registers (allocation demand)
	SharedBytes int // static shared memory per CTA
	LocalBytes  int // local (per-thread) memory

	// Pre-decoded instruction stream, computed once on first launch
	// (decode.go). Kernels must be used by pointer once built.
	decodeOnce sync.Once
	prog       []dinstr
}

// Regs returns the architectural register demand per thread — the peak
// number of simultaneously live values, as an optimizing compiler would
// allocate — used against the per-SM register file budget.
func (k *Kernel) Regs() int { return k.PhysI + k.PhysF }

// Launch describes a kernel launch geometry.
type Launch struct {
	Grid  int // number of CTAs
	Block int // threads per CTA
}

// Threads returns the total thread count of the launch.
func (l Launch) Threads() int { return l.Grid * l.Block }

// Validate reports an error for degenerate launch geometries.
func (l Launch) Validate() error {
	if l.Grid <= 0 || l.Block <= 0 {
		return fmt.Errorf("isa: invalid launch %dx%d", l.Grid, l.Block)
	}
	if l.Block > 1024 {
		return fmt.Errorf("isa: block size %d exceeds 1024", l.Block)
	}
	return nil
}

// Executor launches kernels. Both the functional executor (for correctness
// tests) and the gpusim timing simulator implement it, so benchmark host
// code is written once against this interface.
//
// Launch returns once the kernel has run: device memory holds its
// results, and a fault in the kernel is its error. What else the
// executor makes of the launch (gpusim's timing and statistics) may
// still be pending, as a CUDA launch is asynchronous to the host. Wait
// blocks until nothing launched is pending and returns the first error
// any launch met; an executor that finishes its work inside Launch
// returns nil.
type Executor interface {
	Launch(k *Kernel, launch Launch, mem *Memory) error
	Wait() error
}
