package isa

import (
	"fmt"
	"strings"
)

// Disassemble renders a kernel as a PTX-like listing for reading: a
// header of resource directives, then one instruction per line with its
// PC. It is an output-only format (cmd/disasm); nothing parses it back.
func Disassemble(k *Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n", k.Name)
	fmt.Fprintf(&b, ".regs i=%d f=%d p=%d  // live: i=%d f=%d\n", k.NumI, k.NumF, k.NumP, k.PhysI, k.PhysF)
	if k.SharedBytes > 0 {
		fmt.Fprintf(&b, ".shared %d\n", k.SharedBytes)
	}
	if k.LocalBytes > 0 {
		fmt.Fprintf(&b, ".local %d\n", k.LocalBytes)
	}
	for pc := range k.Instrs {
		fmt.Fprintf(&b, "%4d: %s\n", pc, FormatInstr(&k.Instrs[pc]))
	}
	return b.String()
}

// FormatInstr renders one instruction.
func FormatInstr(ins *Instr) string {
	src2 := func(file byte) string {
		if ins.UseImm {
			if file == 'f' {
				return fmt.Sprintf("%g", ins.FImm)
			}
			return fmt.Sprintf("%d", ins.Imm)
		}
		return fmt.Sprintf("%c%d", file, ins.Src2)
	}
	switch ins.Op {
	case OpNop:
		return "nop"
	case OpMovI:
		return fmt.Sprintf("movi r%d, %d", ins.Dst, ins.Imm)
	case OpFMovI:
		return fmt.Sprintf("fmovi f%d, %g", ins.Dst, ins.FImm)
	case OpMov:
		return fmt.Sprintf("mov r%d, r%d", ins.Dst, ins.Src1)
	case OpFMov:
		return fmt.Sprintf("fmov f%d, f%d", ins.Dst, ins.Src1)
	case OpIAdd, OpISub, OpIMul, OpIDiv, OpIRem, OpIMin, OpIMax,
		OpIAnd, OpIOr, OpIXor, OpShl, OpShr:
		return fmt.Sprintf("%v r%d, r%d, %s", ins.Op, ins.Dst, ins.Src1, src2('r'))
	case OpINeg, OpIAbs:
		return fmt.Sprintf("%v r%d, r%d", ins.Op, ins.Dst, ins.Src1)
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFMin, OpFMax, OpFPow:
		return fmt.Sprintf("%v f%d, f%d, %s", ins.Op, ins.Dst, ins.Src1, src2('f'))
	case OpFNeg, OpFAbs, OpFSqrt, OpFExp, OpFLog, OpFSin, OpFCos:
		return fmt.Sprintf("%v f%d, f%d", ins.Op, ins.Dst, ins.Src1)
	case OpFMA:
		return fmt.Sprintf("fma f%d, f%d, f%d, f%d", ins.Dst, ins.Src1, ins.Src2, ins.Src3)
	case OpI2F:
		return fmt.Sprintf("i2f f%d, r%d", ins.Dst, ins.Src1)
	case OpF2I:
		return fmt.Sprintf("f2i r%d, f%d", ins.Dst, ins.Src1)
	case OpSetpI:
		return fmt.Sprintf("setp.%v.i p%d, r%d, %s", ins.Cmp, ins.Dst, ins.Src1, src2('r'))
	case OpSetpF:
		return fmt.Sprintf("setp.%v.f p%d, f%d, %s", ins.Cmp, ins.Dst, ins.Src1, src2('f'))
	case OpPAnd, OpPOr:
		return fmt.Sprintf("%v p%d, p%d, p%d", ins.Op, ins.Dst, ins.Src1, ins.Src2)
	case OpPNot:
		return fmt.Sprintf("pnot p%d, p%d", ins.Dst, ins.Src1)
	case OpSelI:
		return fmt.Sprintf("sel.i r%d, p%d, r%d, %s", ins.Dst, ins.Src3, ins.Src1, src2('r'))
	case OpSelF:
		return fmt.Sprintf("sel.f f%d, p%d, f%d, %s", ins.Dst, ins.Src3, ins.Src1, src2('f'))
	case OpLd:
		return fmt.Sprintf("ld.%v.%s r%d, [r%d%+d]", ins.Space, memTypeName(ins.MType), ins.Dst, ins.Src1, ins.Imm)
	case OpLdF:
		return fmt.Sprintf("ld.%v.%s f%d, [r%d%+d]", ins.Space, memTypeName(ins.MType), ins.Dst, ins.Src1, ins.Imm)
	case OpSt:
		return fmt.Sprintf("st.%v.%s [r%d%+d], r%d", ins.Space, memTypeName(ins.MType), ins.Src1, ins.Imm, ins.Src2)
	case OpStF:
		return fmt.Sprintf("st.%v.%s [r%d%+d], f%d", ins.Space, memTypeName(ins.MType), ins.Src1, ins.Imm, ins.Src2)
	case OpAtom:
		return fmt.Sprintf("atom.add.%v r%d, [r%d%+d], r%d", ins.Space, ins.Dst, ins.Src1, ins.Imm, ins.Src2)
	case OpRdSp:
		return fmt.Sprintf("rdsp r%d, %s", ins.Dst, specialName(ins.Sp))
	case OpBra:
		neg := ""
		if ins.Neg {
			neg = "!"
		}
		return fmt.Sprintf("@%sp%d bra %d (reconv %d)", neg, ins.Pred, ins.Target, ins.Recon)
	case OpJmp:
		return fmt.Sprintf("jmp %d", ins.Target)
	case OpBar:
		return "bar.sync"
	case OpExit:
		return "exit"
	}
	return fmt.Sprintf("%v ...", ins.Op)
}

func memTypeName(t MemType) string {
	switch t {
	case U8:
		return "u8"
	case I32:
		return "s32"
	case I64:
		return "s64"
	case F32:
		return "f32"
	default:
		return "f64"
	}
}

func specialName(sp Special) string {
	switch sp {
	case SpecTid:
		return "%tid"
	case SpecCta:
		return "%ctaid"
	case SpecNTid:
		return "%ntid"
	default:
		return "%nctaid"
	}
}
