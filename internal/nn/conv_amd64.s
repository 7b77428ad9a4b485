//go:build amd64 && !purego

#include "textflag.h"

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

// func convKernelGrad4(acc *float64, n int, gt *float64, gtPitch int, in *float64, inStride, inPitch int, taps *int, sparse bool)
//
// Kernel gradients of four output channels (the lanes) against n (1..4) input
// planes (the streams), tap by tap. taps holds 25 entries {gtOff, inOff, rows,
// cols}: the rectangle of output pixels whose window has that tap inside the
// plane, as its first pixel's offset in gt (4 lanes per pixel, rows gtPitch
// apart), the offset of the input pixel under the tap (rows inPitch apart) and
// its size; rows is 0 for a tap that no pixel reaches. Stream j keeps the
// tap's accumulator vector at acc+100j+4·tap and reads in+j·inStride; strides
// count float64s. Per pixel, row by row, every stream takes one VMULPD of the
// gradient vector with its broadcast input and one VADDPD onto its
// accumulator: per lane the chain of kernelGrad5, never fused. With sparse
// set, a lane whose gradient is ±0 keeps its accumulator bit for bit (compare
// and blend: the product is formed and dropped). Streams past n repeat stream
// n-1's input from whatever their registers hold; they are never stored.
TEXT ·convKernelGrad4(SB), NOSPLIT, $0-65
	MOVQ acc+0(FP), DX
	MOVQ taps+56(FP), DI
	LEAQ 800(DI), AX
	MOVQ AX, taps+56(FP)   // the end of the table
	SHLQ $3, gtPitch+24(FP)
	SHLQ $3, inPitch+48(FP)
	MOVQ inStride+40(FP), AX
	SHLQ $3, AX
	MOVQ n+8(FP), CX
	XORQ R8, R8
	CMPQ CX, $2
	CMOVQCC AX, R8         // stream 1's input offset
	MOVQ R8, R9
	LEAQ (R8)(AX*1), BX
	CMPQ CX, $3
	CMOVQCC BX, R9         // stream 2's
	MOVQ R9, R10
	LEAQ (R9)(AX*1), BX
	CMPQ CX, $4
	CMOVQCC BX, R10        // stream 3's
	VXORPD Y9, Y9, Y9

tap:
	MOVQ 16(DI), R15
	TESTQ R15, R15
	JLE  next
	MOVQ 0(DI), BX
	SHLQ $3, BX
	ADDQ gt+16(FP), BX
	MOVQ 8(DI), SI
	SHLQ $3, SI
	ADDQ in+32(FP), SI
	MOVQ n+8(FP), AX
	VMOVUPD (DX), Y0
	CMPQ AX, $2
	JB   row
	VMOVUPD 800(DX), Y1
	CMPQ AX, $3
	JB   row
	VMOVUPD 1600(DX), Y2
	CMPQ AX, $4
	JB   row
	VMOVUPD 2400(DX), Y3

row:
	MOVQ BX, CX
	MOVQ SI, AX
	MOVQ 24(DI), R13
	CMPB sparse+64(FP), $0
	JNE  blend

dense:
	VMOVUPD (CX), Y4
	VBROADCASTSD (AX), Y5
	VBROADCASTSD (AX)(R8*1), Y6
	VBROADCASTSD (AX)(R9*1), Y7
	VBROADCASTSD (AX)(R10*1), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $32, CX
	ADDQ $8, AX
	DECQ R13
	JNZ  dense
	JMP  rowend

blend:
	VMOVUPD (CX), Y4
	VCMPPD $0, Y9, Y4, Y10 // lanes whose gradient is zero
	VBROADCASTSD (AX), Y5
	VBROADCASTSD (AX)(R8*1), Y6
	VBROADCASTSD (AX)(R9*1), Y7
	VBROADCASTSD (AX)(R10*1), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y5
	VADDPD Y6, Y1, Y6
	VADDPD Y7, Y2, Y7
	VADDPD Y8, Y3, Y8
	VBLENDVPD Y10, Y0, Y5, Y0
	VBLENDVPD Y10, Y1, Y6, Y1
	VBLENDVPD Y10, Y2, Y7, Y2
	VBLENDVPD Y10, Y3, Y8, Y3
	ADDQ $32, CX
	ADDQ $8, AX
	DECQ R13
	JNZ  blend

rowend:
	ADDQ gtPitch+24(FP), BX
	ADDQ inPitch+48(FP), SI
	DECQ R15
	JNZ  row
	VMOVUPD Y0, (DX)
	MOVQ n+8(FP), AX
	CMPQ AX, $2
	JB   next
	VMOVUPD Y1, 800(DX)
	CMPQ AX, $3
	JB   next
	VMOVUPD Y2, 1600(DX)
	CMPQ AX, $4
	JB   next
	VMOVUPD Y3, 2400(DX)

next:
	ADDQ $32, DX
	ADDQ $32, DI
	CMPQ DI, taps+56(FP)
	JNE  tap
	VZEROUPPER
	RET

// func convInputGrad4(d *float64, dPitch int, gr *float64, oh, ow int, kw *float64, h, pad int)
//
// Input gradients of four input channels (the lanes) from one output
// channel's oh×ow gradient plane gr. d is their lane-interleaved plane, h rows
// of dPitch float64s, with column ox holding input column ox-pad: ow+4 columns,
// of which those outside the input row are stand-ins that collect terms no
// real pixel is owed and are never copied out. kw holds the kernels as
// [tap][lane]. This is inputGrad5's walk: per output row and kernel row the
// five pixels under the window slide through registers, and every gradient
// that is not ±0 is broadcast and adds its five products (VMULPD, then
// VADDPD onto the pixel: never fused). A zero gradient adds nothing.
TEXT ·convInputGrad4(SB), NOSPLIT, $0-64
	MOVQ gr+16(FP), SI
	SHLQ $3, dPitch+8(FP)
	XORQ R15, R15          // oy

rows:
	MOVQ pad+56(FP), R8
	SUBQ R15, R8
	MOVQ h+48(FP), R9
	ADDQ R8, R9
	XORQ AX, AX
	TESTQ R8, R8
	CMOVQLT AX, R8         // ky0 = max(0, pad-oy)
	MOVQ $5, AX
	CMPQ R9, AX
	CMOVQGT AX, R9         // ky1 = min(5, h+pad-oy)
	CMPQ R8, R9
	JGE  nextrow
	MOVQ R15, DI
	SUBQ pad+56(FP), DI
	ADDQ R8, DI
	IMULQ dPitch+8(FP), DI
	ADDQ d+0(FP), DI       // input row oy-pad+ky0
	IMUL3Q $160, R8, BX
	ADDQ kw+40(FP), BX     // kernel row ky0

krow:
	VMOVUPD (BX), Y5
	VMOVUPD 32(BX), Y6
	VMOVUPD 64(BX), Y7
	VMOVUPD 96(BX), Y8
	VMOVUPD 128(BX), Y9
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ DI, DX
	MOVQ SI, CX
	MOVQ ow+32(FP), R13

step:
	VMOVUPD 128(DX), Y4    // the column that enters the window
	MOVQ (CX), AX
	SHLQ $1, AX
	JZ   slide             // ±0; a NaN is not
	VBROADCASTSD (CX), Y10
	VMULPD Y10, Y5, Y11
	VMULPD Y10, Y6, Y12
	VMULPD Y10, Y7, Y13
	VMULPD Y10, Y8, Y14
	VMULPD Y10, Y9, Y10
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VADDPD Y13, Y2, Y2
	VADDPD Y14, Y3, Y3
	VADDPD Y10, Y4, Y4

slide:
	VMOVUPD Y0, (DX)       // the column that leaves it
	VMOVAPD Y1, Y0
	VMOVAPD Y2, Y1
	VMOVAPD Y3, Y2
	VMOVAPD Y4, Y3
	ADDQ $32, DX
	ADDQ $8, CX
	DECQ R13
	JNZ  step
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ dPitch+8(FP), DI
	ADDQ $160, BX
	INCQ R8
	CMPQ R8, R9
	JLT  krow

nextrow:
	MOVQ ow+32(FP), AX
	LEAQ (SI)(AX*8), SI
	INCQ R15
	CMPQ R15, oh+24(FP)
	JLT  rows
	VZEROUPPER
	RET
