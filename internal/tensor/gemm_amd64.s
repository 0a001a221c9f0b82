#include "textflag.h"

// The AVX2/FMA kernels of gemm_amd64.go. Each GEMM routine runs one
// accumulator per output element, loaded from and stored back to the
// caller's float64 array, over the terms in the order given, with
// VFMADD231PD: acc = a·b + acc rounded once, which equals Go's rounded
// product then rounded sum because a float32×float32 product is exact
// in float64. subScaledBand, at the end, fuses nothing: it multiplies,
// then subtracts, as Go rounds a float64 product and difference. The caller has bounds-checked every range read or
// written.

// func tile4(span []float64, vals []float64, offs []int32, base int, acc *[4 * tileCols]float64)
TEXT ·tile4(SB), NOSPLIT, $0-88
	MOVQ span_base+0(FP), R8
	MOVQ span_len+8(FP), AX
	SHLQ $1, AX // a panel's bytes: len/4 float64s
	MOVQ base+72(FP), DX
	LEAQ (R8)(DX*8), R8
	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	MOVQ vals_base+24(FP), SI
	MOVQ vals_len+32(FP), CX
	MOVQ offs_base+48(FP), DI
	MOVQ acc+80(FP), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	VMOVUPD 160(AX), Y5
	VMOVUPD 192(AX), Y6
	VMOVUPD 224(AX), Y7
	XORQ BX, BX
	TESTQ CX, CX
	JEQ tile4store

tile4loop:
	VBROADCASTSD (SI)(BX*8), Y8
	MOVLQSX (DI)(BX*4), DX
	VFMADD231PD (R8)(DX*8), Y8, Y0
	VFMADD231PD 32(R8)(DX*8), Y8, Y1
	VFMADD231PD (R9)(DX*8), Y8, Y2
	VFMADD231PD 32(R9)(DX*8), Y8, Y3
	VFMADD231PD (R10)(DX*8), Y8, Y4
	VFMADD231PD 32(R10)(DX*8), Y8, Y5
	VFMADD231PD (R11)(DX*8), Y8, Y6
	VFMADD231PD 32(R11)(DX*8), Y8, Y7
	INCQ BX
	CMPQ BX, CX
	JLT tile4loop

tile4store:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
	VZEROUPPER
	RET

// func tile1(panel []float64, vals []float64, offs []int32, base int, acc *[tileCols]float64)
TEXT ·tile1(SB), NOSPLIT, $0-88
	MOVQ panel_base+0(FP), R8
	MOVQ base+72(FP), DX
	LEAQ (R8)(DX*8), R8
	MOVQ vals_base+24(FP), SI
	MOVQ vals_len+32(FP), CX
	MOVQ offs_base+48(FP), DI
	MOVQ acc+80(FP), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	XORQ BX, BX
	TESTQ CX, CX
	JEQ tile1store

tile1loop:
	VBROADCASTSD (SI)(BX*8), Y8
	MOVLQSX (DI)(BX*4), DX
	VFMADD231PD (R8)(DX*8), Y8, Y0
	VFMADD231PD 32(R8)(DX*8), Y8, Y1
	INCQ BX
	CMPQ BX, CX
	JLT tile1loop

tile1store:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VZEROUPPER
	RET

// func axpy(acc []float64, av float64, b []float32)
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	VBROADCASTSD av+24(FP), Y0
	MOVQ b_base+32(FP), SI
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-16, DX
	JEQ axpy4

axpy16loop:
	VCVTPS2PD (SI)(BX*4), Y1
	VCVTPS2PD 16(SI)(BX*4), Y2
	VCVTPS2PD 32(SI)(BX*4), Y3
	VCVTPS2PD 48(SI)(BX*4), Y4
	VMOVUPD (DI)(BX*8), Y5
	VMOVUPD 32(DI)(BX*8), Y6
	VMOVUPD 64(DI)(BX*8), Y7
	VMOVUPD 96(DI)(BX*8), Y8
	VFMADD231PD Y1, Y0, Y5
	VFMADD231PD Y2, Y0, Y6
	VFMADD231PD Y3, Y0, Y7
	VFMADD231PD Y4, Y0, Y8
	VMOVUPD Y5, (DI)(BX*8)
	VMOVUPD Y6, 32(DI)(BX*8)
	VMOVUPD Y7, 64(DI)(BX*8)
	VMOVUPD Y8, 96(DI)(BX*8)
	ADDQ $16, BX
	CMPQ BX, DX
	JLT axpy16loop

axpy4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ BX, DX
	JGE axpytail

axpy4loop:
	VCVTPS2PD (SI)(BX*4), Y1
	VMOVUPD (DI)(BX*8), Y5
	VFMADD231PD Y1, Y0, Y5
	VMOVUPD Y5, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, DX
	JLT axpy4loop

axpytail:
	CMPQ BX, CX
	JGE axpydone

axpytailloop:
	VCVTSS2SD (SI)(BX*4), X1, X1
	VMOVSD (DI)(BX*8), X5
	VFMADD231SD X1, X0, X5
	VMOVSD X5, (DI)(BX*8)
	INCQ BX
	CMPQ BX, CX
	JLT axpytailloop

axpydone:
	VZEROUPPER
	RET

// func subScaledBand(acc, ring, vals []float64, start int)
//
// acc[j] -= vals[k]·row[j] for every k ascending, row walking the ring
// from element start and wrapping at its end, with each strip of acc
// (16 columns, then 4, then 1) held in registers across every k: VMULPD
// with the row value as its first source, then VSUBPD with acc as its
// first source, never FMA, so each element is rounded twice, as Go's
// scalar MULSD and SUBSD round it, and a NaN meeting a NaN keeps the
// compiled Go loop's payload. The caller guarantees len(acc) > 0 and
// that len(ring) is a whole number of len(acc)-value rows.
TEXT ·subScaledBand(SB), NOSPLIT, $0-80
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ ring_base+24(FP), R8
	MOVQ ring_len+32(FP), R9
	LEAQ (R8)(R9*8), R9 // the ring's end
	MOVQ vals_base+48(FP), SI
	MOVQ vals_len+56(FP), DX
	MOVQ start+72(FP), R10
	LEAQ (R8)(R10*8), R10 // the row vals[0] scales
	MOVQ CX, R11
	SHLQ $3, R11 // a row's bytes
	XORQ BX, BX
	TESTQ DX, DX
	JEQ banddone
	MOVQ CX, R13
	ANDQ $-16, R13
	JEQ band4

band16:
	VMOVUPD (DI)(BX*8), Y1
	VMOVUPD 32(DI)(BX*8), Y2
	VMOVUPD 64(DI)(BX*8), Y3
	VMOVUPD 96(DI)(BX*8), Y4
	MOVQ R10, R12
	XORQ AX, AX

	PCALIGN $32

band16k:
	VBROADCASTSD (SI)(AX*8), Y0
	VMOVUPD (R12)(BX*8), Y5
	VMOVUPD 32(R12)(BX*8), Y6
	VMOVUPD 64(R12)(BX*8), Y7
	VMOVUPD 96(R12)(BX*8), Y8
	VMULPD Y0, Y5, Y5
	VMULPD Y0, Y6, Y6
	VMULPD Y0, Y7, Y7
	VMULPD Y0, Y8, Y8
	VSUBPD Y5, Y1, Y1
	VSUBPD Y6, Y2, Y2
	VSUBPD Y7, Y3, Y3
	VSUBPD Y8, Y4, Y4
	ADDQ R11, R12
	CMPQ R12, R9
	CMOVQEQ R8, R12
	INCQ AX
	CMPQ AX, DX
	JLT band16k

	VMOVUPD Y1, (DI)(BX*8)
	VMOVUPD Y2, 32(DI)(BX*8)
	VMOVUPD Y3, 64(DI)(BX*8)
	VMOVUPD Y4, 96(DI)(BX*8)
	ADDQ $16, BX
	CMPQ BX, R13
	JLT band16

band4:
	MOVQ CX, R13
	ANDQ $-4, R13
	CMPQ BX, R13
	JGE band1

band4col:
	VMOVUPD (DI)(BX*8), Y1
	MOVQ R10, R12
	XORQ AX, AX

band4k:
	VBROADCASTSD (SI)(AX*8), Y0
	VMOVUPD (R12)(BX*8), Y5
	VMULPD Y0, Y5, Y5
	VSUBPD Y5, Y1, Y1
	ADDQ R11, R12
	CMPQ R12, R9
	CMOVQEQ R8, R12
	INCQ AX
	CMPQ AX, DX
	JLT band4k

	VMOVUPD Y1, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, R13
	JLT band4col

band1:
	CMPQ BX, CX
	JGE banddone

band1col:
	VMOVSD (DI)(BX*8), X1
	MOVQ R10, R12
	XORQ AX, AX

band1k:
	VMOVSD (SI)(AX*8), X0
	VMOVSD (R12)(BX*8), X5
	VMULSD X0, X5, X5
	VSUBSD X5, X1, X1
	ADDQ R11, R12
	CMPQ R12, R9
	CMOVQEQ R8, R12
	INCQ AX
	CMPQ AX, DX
	JLT band1k

	VMOVSD X1, (DI)(BX*8)
	INCQ BX
	CMPQ BX, CX
	JLT band1col

banddone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
