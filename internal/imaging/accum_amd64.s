#include "textflag.h"

// func accumBlocks16(dst []float32, srcs [][]float32, kernel []float32)
//
// For each block of 16 columns, four XMM accumulators start at zero and
// take, per tap k in ascending order, srcs[k][x:x+16] * kernel[k]
// (MULPS) added onto them (ADDPS): per lane exactly `acc += src*kv` of
// the Go loop. len(dst) is a multiple of 16 and len(kernel) >= 1.
TEXT ·accumBlocks16(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), SI
	MOVQ kernel_base+48(FP), R8
	MOVQ kernel_len+56(FP), R9
	SHRQ $4, CX            // CX = number of 16-column blocks
	XORQ R10, R10          // R10 = byte offset of the block's first column

block:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ SI, R11           // R11 = &srcs[k]
	MOVQ R8, R12           // R12 = &kernel[k]
	MOVQ R9, R13           // R13 = taps left

tap:
	MOVQ (R11), AX         // AX = srcs[k] base pointer
	MOVSS (R12), X4
	SHUFPS $0x00, X4, X4   // X4 = kernel[k] in every lane
	MOVUPS (AX)(R10*1), X5
	MOVUPS 16(AX)(R10*1), X6
	MOVUPS 32(AX)(R10*1), X7
	MOVUPS 48(AX)(R10*1), X8
	MULPS X4, X5
	MULPS X4, X6
	MULPS X4, X7
	MULPS X4, X8
	ADDPS X5, X0
	ADDPS X6, X1
	ADDPS X7, X2
	ADDPS X8, X3
	ADDQ $24, R11          // next slice header
	ADDQ $4, R12
	DECQ R13
	JNZ tap

	MOVUPS X0, (DI)(R10*1)
	MOVUPS X1, 16(DI)(R10*1)
	MOVUPS X2, 32(DI)(R10*1)
	MOVUPS X3, 48(DI)(R10*1)
	ADDQ $64, R10
	DECQ CX
	JNZ block
	RET
