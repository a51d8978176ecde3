package isa

// dinstr is the dense pre-decoded form of an Instr: operand indices
// narrowed, the memory access width resolved, and every
// field the interpreter reads laid out flat so Warp.Exec never
// re-inspects the architectural Instr per thread per cycle. One dinstr
// corresponds 1:1 to the Instr at the same PC.
type dinstr struct {
	op     Op
	useImm bool
	neg    bool
	space  Space
	mtype  MemType
	cmp    CmpOp
	sp     Special

	size                  int32 // memory access width in bytes
	dst, src1, src2, src3 int32
	pred                  int32
	target, recon         int32

	imm  int64
	fimm float64
}

// program returns the kernel's pre-decoded instruction stream, decoding
// it exactly once per kernel. Kernels are shared across goroutines (the
// concurrent experiment runner launches the same kernel on many simulated
// GPUs), so the decode is guarded by a sync.Once on the Kernel.
func (k *Kernel) program() []dinstr {
	k.decodeOnce.Do(func() {
		prog := make([]dinstr, len(k.Instrs))
		for i := range k.Instrs {
			ins := &k.Instrs[i]
			prog[i] = dinstr{
				op:     ins.Op,
				useImm: ins.UseImm,
				neg:    ins.Neg,
				space:  ins.Space,
				mtype:  ins.MType,
				cmp:    ins.Cmp,
				sp:     ins.Sp,
				size:   int32(ins.MType.Size()),
				dst:    int32(ins.Dst),
				src1:   int32(ins.Src1),
				src2:   int32(ins.Src2),
				src3:   int32(ins.Src3),
				pred:   int32(ins.Pred),
				target: int32(ins.Target),
				recon:  int32(ins.Recon),
				imm:    ins.Imm,
				fimm:   ins.FImm,
			}
		}
		k.prog = prog
	})
	return k.prog
}
