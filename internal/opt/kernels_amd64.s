#include "textflag.h"

// The grid pass's row kernels (see kernels.go): a loop over pairs of
// models in SSE2 — unaligned loads and stores, since a row starts wherever
// its state's m floats do — then one scalar model when len(dst) is odd.
// AX is the model index, BX len(dst) rounded down to even, CX len(dst).
// SSE2 only, legacy encodings throughout (DESIGN §5 says why).

// func addRow(dst, a, b []float64)
TEXT ·addRow(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-2, BX
	JZ   tail
	PCALIGN $32

loop:
	MOVUPD (SI)(AX*8), X0
	MOVUPD (DX)(AX*8), X1
	ADDPD  X1, X0
	MOVUPD X0, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    loop

tail:
	CMPQ  AX, CX
	JGE   done
	MOVSD (SI)(AX*8), X0
	ADDSD (DX)(AX*8), X0
	MOVSD X0, (DI)(AX*8)

done:
	RET

// func addMinRow(dst, a, b, c, d []float64)
TEXT ·addMinRow(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ c_base+72(FP), R8
	MOVQ d_base+96(FP), R9
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-2, BX
	JZ   tail
	PCALIGN $32

loop:
	MOVUPD (SI)(AX*8), X0
	MOVUPD (DX)(AX*8), X1
	ADDPD  X1, X0
	MOVUPD (R8)(AX*8), X2
	MOVUPD (R9)(AX*8), X3
	ADDPD  X3, X2
	MINPD  X2, X0
	MOVUPD X0, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    loop

tail:
	CMPQ  AX, CX
	JGE   done
	MOVSD (SI)(AX*8), X0
	ADDSD (DX)(AX*8), X0
	MOVSD (R8)(AX*8), X2
	ADDSD (R9)(AX*8), X2
	MINSD X2, X0
	MOVSD X0, (DI)(AX*8)

done:
	RET

// func minRow(dst, a, b []float64)
TEXT ·minRow(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-2, BX
	JZ   tail
	PCALIGN $32

loop:
	MOVUPD (SI)(AX*8), X0
	MOVUPD (DX)(AX*8), X1
	MINPD  X1, X0
	MOVUPD X0, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    loop

tail:
	CMPQ  AX, CX
	JGE   done
	MOVSD (SI)(AX*8), X0
	MINSD (DX)(AX*8), X0
	MOVSD X0, (DI)(AX*8)

done:
	RET

// func foldRow(ga, gb, cc []float64)
// ga[j], gb[j] = min(ga[j], gb[j]+cc[j]), min(gb[j], ga[j])
TEXT ·foldRow(SB), NOSPLIT, $0-72
	MOVQ ga_base+0(FP), DI
	MOVQ ga_len+8(FP), CX
	MOVQ gb_base+24(FP), SI
	MOVQ cc_base+48(FP), DX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-2, BX
	JZ   tail
	PCALIGN $32

loop:
	MOVUPD (DI)(AX*8), X0 // ha
	MOVUPD (SI)(AX*8), X1 // hb
	MOVUPD (DX)(AX*8), X2
	ADDPD  X1, X2         // hb + cc
	MINPD  X0, X1         // min(hb, ha)
	MINPD  X2, X0         // min(ha, hb + cc)
	MOVUPD X0, (DI)(AX*8)
	MOVUPD X1, (SI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    loop

tail:
	CMPQ  AX, CX
	JGE   done
	MOVSD (DI)(AX*8), X0
	MOVSD (SI)(AX*8), X1
	MOVSD (DX)(AX*8), X2
	ADDSD X1, X2
	MINSD X0, X1
	MINSD X2, X0
	MOVSD X0, (DI)(AX*8)
	MOVSD X1, (SI)(AX*8)

done:
	RET
