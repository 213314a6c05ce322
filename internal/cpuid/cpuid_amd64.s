#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	// Highest function parameter must reach leaf 7.
	MOVL $0, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JL   noavx2
	// Leaf 1: OSXSAVE (ECX bit 27) and AVX (ECX bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, R8
	CMPL R8, $0x18000000
	JNE  noavx2
	// XCR0: XMM (bit 1) and YMM (bit 2) state enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2
	// Leaf 7 sub-leaf 0: AVX2 (EBX bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   noavx2
	MOVB $1, ret+0(FP)
	RET

noavx2:
	MOVB $0, ret+0(FP)
	RET
