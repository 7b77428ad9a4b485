//go:build amd64 && !purego

#include "textflag.h"

// func HasAVX2() bool
//
// CPUID leaf 1: OSXSAVE and AVX; XCR0: the OS saves XMM and YMM state;
// CPUID leaf 7: AVX2.
TEXT ·HasAVX2(SB), NOSPLIT, $0-1
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
