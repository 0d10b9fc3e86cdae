#include "textflag.h"

// The grid pass's relaxation kernels (see kernels.go): a loop over the
// states, and for each state a loop over pairs of models in SSE2 —
// unaligned loads and stores, since a row starts wherever its state's w
// floats do. w is even and at least 2, so a row has no odd model left over
// and every inner loop runs at least once. CX holds w, AX the model index.
// SSE2 and general-purpose instructions of the amd64 baseline only, legacy
// encodings throughout (DESIGN §5 says why); a state's size comes from a
// table, not from a bit-count instruction.

// func readRows(dp, next []float64, feasible []uint32, ibit uint32, remote, saving, local []float64)
TEXT ·readRows(SB), NOSPLIT, $0-152
	MOVQ dp_base+0(FP), SI
	MOVQ next_base+24(FP), DI
	MOVQ feasible_base+48(FP), R8
	MOVQ feasible_len+56(FP), R9
	LEAQ (R8)(R9*4), R9         // end of feasible
	MOVL ibit+72(FP), R10
	MOVQ remote_base+80(FP), R11
	MOVQ remote_len+88(FP), CX
	MOVQ saving_base+104(FP), R12
	MOVQ local_base+128(FP), R13
	MOVQ R10, R14
	IMULQ CX, R14
	SHLQ $3, R14                // bytes from the row of y^ibit to y's

state:
	CMPQ R8, R9
	JEQ  done
	MOVL (R8), DX               // y
	ADDQ $4, R8
	MOVQ DX, BX
	IMULQ CX, BX
	SHLQ $3, BX
	LEAQ (DI)(BX*1), R15        // next's row of y
	ADDQ SI, BX                 // dp's row of y
	XORQ AX, AX
	TESTQ R10, DX
	JNZ  reader

remote:
	MOVUPD (BX)(AX*8), X0
	MOVUPD (R11)(AX*8), X1
	ADDPD  X1, X0               // dp[y] + remote
	MOVUPD X0, (R15)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    remote
	JMP    state

reader:
	MOVQ BX, DX
	SUBQ R14, DX                // dp's row of y^ibit

readerLoop:
	MOVUPD (DX)(AX*8), X0
	MOVUPD (R12)(AX*8), X1
	ADDPD  X1, X0               // dp[y^ibit] + saving
	MOVUPD (BX)(AX*8), X2
	MOVUPD (R13)(AX*8), X3
	ADDPD  X3, X2               // dp[y] + local
	MINPD  X2, X0
	MOVUPD X0, (R15)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    readerLoop
	JMP    state

done:
	RET

// func foldRows(dp, g []float64, all, ibit uint32, cc []float64)
TEXT ·foldRows(SB), NOSPLIT, $0-80
	MOVQ dp_base+0(FP), SI
	MOVQ g_base+24(FP), DI
	MOVL all+48(FP), R9
	MOVL ibit+52(FP), R10
	MOVQ cc_base+56(FP), R8
	MOVQ cc_len+64(FP), CX
	MOVQ R10, AX
	NOTQ AX
	ANDQ AX, R9                 // rest = all &^ ibit
	XORQ R11, R11               // sub, a subset of rest

	// The writer's bit: g[sub|ibit] = min(dp[sub|ibit], dp[sub]).
first:
	MOVQ R11, BX
	ORQ  R10, BX
	IMULQ CX, BX
	SHLQ $3, BX
	MOVQ R11, DX
	IMULQ CX, DX
	SHLQ $3, DX
	ADDQ SI, DX                 // dp's row of sub
	LEAQ (DI)(BX*1), R14        // g's row of sub|ibit
	ADDQ SI, BX                 // dp's row of sub|ibit
	XORQ AX, AX

firstLoop:
	MOVUPD (BX)(AX*8), X0
	MOVUPD (DX)(AX*8), X1
	MINPD  X1, X0
	MOVUPD X0, (R14)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    firstLoop
	CMPQ   R11, R9
	JEQ    bits
	SUBQ   R9, R11
	ANDQ   R9, R11              // sub = (sub - rest) & rest
	JMP    first

	// Every other bit, over the masks that contain the writer.
bits:
	MOVQ $1, R12                // bit

nextBit:
	CMPQ R12, R9
	JGT  done
	CMPQ R12, R10
	JEQ  skip
	MOVQ R12, R13
	NOTQ R13
	ANDQ R9, R13                // free = rest &^ bit
	MOVQ R12, R15
	IMULQ CX, R15
	SHLQ $3, R15                // bytes from the row of a to a|bit's
	XORQ R11, R11               // sub, a subset of free

pair:
	MOVQ R11, BX
	ORQ  R10, BX
	IMULQ CX, BX
	SHLQ $3, BX
	ADDQ DI, BX                 // ga, g's row of a = sub|ibit
	LEAQ (BX)(R15*1), DX        // gb, g's row of a|bit
	XORQ AX, AX

pairLoop:
	MOVUPD (BX)(AX*8), X0       // ha
	MOVUPD (DX)(AX*8), X1       // hb
	MOVUPD (R8)(AX*8), X2
	ADDPD  X1, X2               // hb + cc
	MINPD  X0, X1               // min(hb, ha)
	MINPD  X2, X0               // min(ha, hb + cc)
	MOVUPD X0, (BX)(AX*8)
	MOVUPD X1, (DX)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    pairLoop
	CMPQ   R11, R13
	JEQ    skip
	SUBQ   R13, R11
	ANDQ   R13, R11             // sub = (sub - free) & free
	JMP    pair

skip:
	SHLQ $1, R12
	JMP  nextBit

done:
	RET

// func writeRows(g, next []float64, feasible, sizes []uint32, ibit uint32, w int, writeIn, writeOut []float64)
TEXT ·writeRows(SB), NOSPLIT, $0-160
	MOVQ g_base+0(FP), SI
	MOVQ next_base+24(FP), DI
	MOVQ feasible_base+48(FP), R8
	MOVQ feasible_len+56(FP), R9
	LEAQ (R8)(R9*4), R9         // end of feasible
	MOVQ sizes_base+72(FP), R13
	MOVL ibit+96(FP), R10
	MOVQ w+104(FP), CX
	MOVQ writeIn_base+112(FP), R11
	MOVQ writeOut_base+136(FP), R12

state:
	CMPQ R8, R9
	JEQ  done
	MOVL (R8), DX               // x
	ADDQ $4, R8
	MOVL (R13)(DX*4), AX        // |x|
	IMULQ CX, AX
	SHLQ $3, AX
	MOVQ R11, R14
	TESTQ R10, DX
	CMOVQEQ R12, R14            // writeOut when x lacks the writer
	ADDQ AX, R14                // the charge row of |x|
	MOVQ DX, BX
	IMULQ CX, BX
	SHLQ $3, BX
	ADDQ DI, BX                 // next's row of x
	ORQ  R10, DX
	IMULQ CX, DX
	SHLQ $3, DX
	ADDQ SI, DX                 // g's row of x|ibit
	XORQ AX, AX

loop:
	MOVUPD (DX)(AX*8), X0
	MOVUPD (R14)(AX*8), X1
	ADDPD  X1, X0               // g[x|ibit] + charge
	MOVUPD X0, (BX)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    loop
	JMP    state

done:
	RET
