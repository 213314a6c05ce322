// AVX2 bodies of the blocked CSR product. See batch_amd64.go for the
// bitwise contract: per entry, Y2 = broadcast v, then v·x-row, then
// acc + (v·x) — the scalar order, with no FMA contraction.

#include "textflag.h"

// func mulRowsAVX4(rowPtr, colIdx *int32, values, x, dst *float64, rows int)
TEXT ·mulRowsAVX4(SB), NOSPLIT, $0-48
	MOVQ rowPtr+0(FP), R8
	MOVQ colIdx+8(FP), R9
	MOVQ values+16(FP), R10
	MOVQ x+24(FP), SI
	MOVQ dst+32(FP), DI
	MOVQ rows+40(FP), R11
	MOVLQSX (R8), CX          // entry index: the first row's start
	XORQ R13, R13             // row

row4:
	MOVLQSX 4(R8)(R13*4), DX  // this row's end
	VXORPD Y0, Y0, Y0         // acc = +0
	CMPQ CX, DX
	JGE  store4

entry4:
	MOVLQSX (R9)(CX*4), BX
	SHLQ $5, BX               // x row offset: 32 bytes a row
	VBROADCASTSD (R10)(CX*8), Y2
	VMOVUPD (SI)(BX*1), Y1
	VMULPD Y1, Y2, Y2
	VADDPD Y2, Y0, Y0
	INCQ CX
	CMPQ CX, DX
	JL   entry4

store4:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	INCQ R13
	CMPQ R13, R11
	JL   row4
	VZEROUPPER
	RET

// func mulRowsAVX8(rowPtr, colIdx *int32, values, x, dst *float64, rows int)
TEXT ·mulRowsAVX8(SB), NOSPLIT, $0-48
	MOVQ rowPtr+0(FP), R8
	MOVQ colIdx+8(FP), R9
	MOVQ values+16(FP), R10
	MOVQ x+24(FP), SI
	MOVQ dst+32(FP), DI
	MOVQ rows+40(FP), R11
	MOVLQSX (R8), CX
	XORQ R13, R13

row8:
	MOVLQSX 4(R8)(R13*4), DX
	VXORPD Y0, Y0, Y0         // lanes 0–3
	VXORPD Y3, Y3, Y3         // lanes 4–7
	CMPQ CX, DX
	JGE  store8

entry8:
	MOVLQSX (R9)(CX*4), BX
	SHLQ $6, BX               // x row offset: 64 bytes a row
	VBROADCASTSD (R10)(CX*8), Y2
	VMOVUPD (SI)(BX*1), Y1
	VMOVUPD 32(SI)(BX*1), Y4
	VMULPD Y1, Y2, Y1
	VMULPD Y4, Y2, Y4
	VADDPD Y1, Y0, Y0
	VADDPD Y4, Y3, Y3
	INCQ CX
	CMPQ CX, DX
	JL   entry8

store8:
	VMOVUPD Y0, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ $64, DI
	INCQ R13
	CMPQ R13, R11
	JL   row8
	VZEROUPPER
	RET
