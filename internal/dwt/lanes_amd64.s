//go:build amd64 && !purego

#include "textflag.h"

// func analyzeQuads(x, approx, detail *float64, quads int, lo, hi *float64)
//
// analyze4's wrap-free outputs, four consecutive ones as the lanes: output i
// is h0·x[2i] + … + h3·x[2i+3] into approx and the same with g into detail.
// Two unaligned loads and an unpack give one tap of all four lanes, in lane
// order i, i+2, i+1, i+3; every lane starts from +0 and takes one VMULPD and
// one VADDPD per tap, taps ascending, the sum as first source: the scalar
// chain, never fused. VPERMPD puts the lanes back in order for the stores.
// Quad q reads x[8q .. 8q+9] and writes approx and detail [4q .. 4q+3].
TEXT ·analyzeQuads(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ approx+8(FP), DI
	MOVQ detail+16(FP), DX
	MOVQ quads+24(FP), CX
	MOVQ lo+32(FP), AX
	MOVQ hi+40(FP), BX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 0(BX), Y12
	VBROADCASTSD 8(BX), Y13
	VBROADCASTSD 16(BX), Y14
	VBROADCASTSD 24(BX), Y15
	VXORPD Y7, Y7, Y7

quad:
	VMOVUPD 0(SI), Y0      // x[2i .. 2i+3]
	VMOVUPD 32(SI), Y1     // x[2i+4 .. 2i+7]
	VUNPCKLPD Y1, Y0, Y2   // tap 0
	VUNPCKHPD Y1, Y0, Y3   // tap 1
	VMOVUPD 16(SI), Y0     // x[2i+2 .. 2i+5]
	VMOVUPD 48(SI), Y1     // x[2i+6 .. 2i+9]
	VUNPCKLPD Y1, Y0, Y4   // tap 2
	VUNPCKHPD Y1, Y0, Y5   // tap 3
	VMULPD Y8, Y2, Y0
	VADDPD Y0, Y7, Y0
	VMULPD Y9, Y3, Y1
	VADDPD Y1, Y0, Y0
	VMULPD Y10, Y4, Y1
	VADDPD Y1, Y0, Y0
	VMULPD Y11, Y5, Y1
	VADDPD Y1, Y0, Y0      // approx
	VMULPD Y12, Y2, Y1
	VADDPD Y1, Y7, Y1
	VMULPD Y13, Y3, Y2
	VADDPD Y2, Y1, Y1
	VMULPD Y14, Y4, Y2
	VADDPD Y2, Y1, Y1
	VMULPD Y15, Y5, Y2
	VADDPD Y2, Y1, Y1      // detail
	VPERMPD $0xd8, Y0, Y0
	VPERMPD $0xd8, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DX)
	ADDQ $64, SI
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ CX
	JNZ  quad
	VZEROUPPER
	RET

// func synthesizeQuads(a, d, x *float64, quads int, lo, hi *float64)
//
// synthesize4's interior gather, the outputs x[2i] of four consecutive i as
// the lanes of one vector and x[2i+1] of another: with pk(i) = hk·a[i] +
// gk·d[i] (VMULPD, VMULPD, VADDPD, the h product as first source), x[2i] is
// +0 + p2(i−1), then + p0(i), and x[2i+1] is +0 + p3(i−1), then + p1(i): the
// scalar chain, never fused. VPERMPD and an unpack interleave the two vectors
// for the stores. a and d point at approx[i−1] and detail[i−1] of the first
// quad's first i, and x at its x[2i]; quad q reads a and d [4q .. 4q+4] and
// writes x[8q .. 8q+7].
TEXT ·synthesizeQuads(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ d+8(FP), BX
	MOVQ x+16(FP), DI
	MOVQ quads+24(FP), CX
	MOVQ lo+32(FP), AX
	MOVQ hi+40(FP), DX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 0(DX), Y12
	VBROADCASTSD 8(DX), Y13
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15
	VXORPD Y7, Y7, Y7

quad:
	VMOVUPD 0(SI), Y0      // a[i-1 .. i+2]
	VMOVUPD 0(BX), Y1      // d[i-1 .. i+2]
	VMOVUPD 8(SI), Y2      // a[i .. i+3]
	VMOVUPD 8(BX), Y3      // d[i .. i+3]
	VMULPD Y10, Y0, Y4
	VMULPD Y14, Y1, Y5
	VADDPD Y5, Y4, Y4      // p2(i-1)
	VADDPD Y4, Y7, Y4
	VMULPD Y8, Y2, Y5
	VMULPD Y12, Y3, Y6
	VADDPD Y6, Y5, Y5      // p0(i)
	VADDPD Y5, Y4, Y4      // x[2i]
	VMULPD Y11, Y0, Y5
	VMULPD Y15, Y1, Y6
	VADDPD Y6, Y5, Y5      // p3(i-1)
	VADDPD Y5, Y7, Y5
	VMULPD Y9, Y2, Y0
	VMULPD Y13, Y3, Y1
	VADDPD Y1, Y0, Y0      // p1(i)
	VADDPD Y0, Y5, Y5      // x[2i+1]
	VPERMPD $0xd8, Y4, Y4  // lane order i, i+2, i+1, i+3
	VPERMPD $0xd8, Y5, Y5
	VUNPCKLPD Y5, Y4, Y0   // x[2i .. 2i+3]
	VUNPCKHPD Y5, Y4, Y1   // x[2i+4 .. 2i+7]
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $64, DI
	DECQ CX
	JNZ  quad
	VZEROUPPER
	RET
