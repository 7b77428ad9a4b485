//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX2() bool
//
// CPUID leaf 1: OSXSAVE and AVX; XCR0: the OS saves XMM and YMM state;
// CPUID leaf 7: AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)

no:
	RET

// func convSum4(t *float64, tStride, nt int, in *float64, inStride, inPitch int, kw *float64, kwStride, rows, cols, tiles, tNext, inNext int)
//
// A tile is four independent sums over one rows×cols tap range, four lanes
// each. Stream j (0..3) reads its taps from in+j*inStride, rows inPitch apart,
// and its 4-lane kernel vectors from kw+j*kwStride, 4 values per tap and 20
// per kernel row; strides count float64s. Every stream starts from +0 and
// takes one VMULPD and one VADDPD per tap in (row, col) order, the sum as
// first source: per lane the chain of the scalar kernels, never fused. The
// sums of the first nt streams (1..4) are then added to the vectors at t,
// t+tStride, ... in stream order, so with tStride 0 one vector receives them
// one after the other; the other streams' sums are dropped. tiles (>= 1) tiles
// run, each tNext further in t and inNext further in in, all over kw.
TEXT ·convSum4(SB), NOSPLIT, $0-104
	MOVQ t+0(FP), DX
	MOVQ inStride+32(FP), R8
	MOVQ inPitch+40(FP), R9
	MOVQ kwStride+56(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R12   // stream 3's input offset
	LEAQ (R10)(R10*2), R13 // stream 3's kernel offset
	SHLQ $3, tStride+8(FP)
	SHLQ $3, tNext+88(FP)
	SHLQ $3, inNext+96(FP)

tile:
	MOVQ in+24(FP), SI
	MOVQ kw+48(FP), DI
	MOVQ rows+64(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

row:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ cols+72(FP), R11

col:
	VBROADCASTSD (AX), Y4
	VBROADCASTSD (AX)(R8*1), Y5
	VBROADCASTSD (AX)(R8*2), Y6
	VBROADCASTSD (AX)(R12*1), Y7
	VMULPD (BX), Y4, Y4
	VMULPD (BX)(R10*1), Y5, Y5
	VMULPD (BX)(R10*2), Y6, Y6
	VMULPD (BX)(R13*1), Y7, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	ADDQ $8, AX
	ADDQ $32, BX
	DECQ R11
	JNZ  col
	ADDQ R9, SI
	ADDQ $160, DI
	DECQ CX
	JNZ  row

	MOVQ DX, AX
	MOVQ tStride+8(FP), R11
	MOVQ nt+16(FP), CX
	VMOVUPD (AX), Y4
	VADDPD Y0, Y4, Y4
	VMOVUPD Y4, (AX)
	DECQ CX
	JZ   next
	ADDQ R11, AX
	VMOVUPD (AX), Y4
	VADDPD Y1, Y4, Y4
	VMOVUPD Y4, (AX)
	DECQ CX
	JZ   next
	ADDQ R11, AX
	VMOVUPD (AX), Y4
	VADDPD Y2, Y4, Y4
	VMOVUPD Y4, (AX)
	DECQ CX
	JZ   next
	ADDQ R11, AX
	VMOVUPD (AX), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, (AX)

next:
	ADDQ tNext+88(FP), DX
	MOVQ inNext+96(FP), AX
	ADDQ AX, in+24(FP)
	DECQ tiles+80(FP)
	JNZ  tile
	VZEROUPPER
	RET
