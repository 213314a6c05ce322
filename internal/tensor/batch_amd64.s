// AVX2 inner loops of the blocked tensor contractions. See
// batch_amd64.go for the bitwise contract: VMULPD/VADDPD lanes perform
// exactly the scalar IEEE-754 double ops of cooScatterBatch, in the
// same order, with no FMA contraction.

#include "textflag.h"

// func cooScatterAVX4(dst, a, bb *float64, di, ai, bi *int32, p *float64, n int)
//
// Per entry q: Y0 = broadcast p[q]; Y0 = Y0 * a-row; Y0 = Y0 * b-row
// (cached in Y1, reloaded only when bi[q] changes); dst-row += Y0 —
// the exact (p·a)·b then d+w order of the scalar body.
TEXT ·cooScatterAVX4(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ bb+16(FP), R15
	MOVQ di+24(FP), BX
	MOVQ ai+32(FP), DX
	MOVQ bi+40(FP), R9
	MOVQ p+48(FP), R10
	MOVQ n+56(FP), R13
	XORQ CX, CX
	MOVQ $-1, R14

scatter4:
	MOVL (R9)(CX*4), R8
	CMPQ R8, R14
	JE   bsame4
	MOVQ R8, R14
	SHLQ $5, R8
	VMOVUPD (R15)(R8*1), Y1

bsame4:
	MOVL (DX)(CX*4), R8
	SHLQ $5, R8
	VBROADCASTSD (R10)(CX*8), Y0
	VMOVUPD (SI)(R8*1), Y2
	VMULPD Y2, Y0, Y0
	VMULPD Y1, Y0, Y0
	MOVL (BX)(CX*4), R8
	SHLQ $5, R8
	VMOVUPD (DI)(R8*1), Y2
	VADDPD Y0, Y2, Y2
	VMOVUPD Y2, (DI)(R8*1)
	INCQ CX
	CMPQ CX, R13
	JL   scatter4
	VZEROUPPER
	RET

// func cooScatterAVX8(dst, a, bb *float64, di, ai, bi *int32, p *float64, n int)
//
// The cols = 8 variant: rows span two 256-bit lanes (Y1/Y4 cache the
// b-row halves).
TEXT ·cooScatterAVX8(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ bb+16(FP), R15
	MOVQ di+24(FP), BX
	MOVQ ai+32(FP), DX
	MOVQ bi+40(FP), R9
	MOVQ p+48(FP), R10
	MOVQ n+56(FP), R13
	XORQ CX, CX
	MOVQ $-1, R14

scatter8:
	MOVL (R9)(CX*4), R8
	CMPQ R8, R14
	JE   bsame8
	MOVQ R8, R14
	SHLQ $6, R8
	VMOVUPD (R15)(R8*1), Y1
	VMOVUPD 32(R15)(R8*1), Y4

bsame8:
	MOVL (DX)(CX*4), R8
	SHLQ $6, R8
	VBROADCASTSD (R10)(CX*8), Y0
	VMOVUPD (SI)(R8*1), Y2
	VMOVUPD 32(SI)(R8*1), Y5
	VMULPD Y2, Y0, Y2
	VMULPD Y5, Y0, Y5
	VMULPD Y1, Y2, Y2
	VMULPD Y4, Y5, Y5
	MOVL (BX)(CX*4), R8
	SHLQ $6, R8
	VMOVUPD (DI)(R8*1), Y3
	VMOVUPD 32(DI)(R8*1), Y6
	VADDPD Y2, Y3, Y3
	VADDPD Y5, Y6, Y6
	VMOVUPD Y3, (DI)(R8*1)
	VMOVUPD Y6, 32(DI)(R8*1)
	INCQ CX
	CMPQ CX, R13
	JL   scatter8
	VZEROUPPER
	RET
