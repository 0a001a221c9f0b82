#include "textflag.h"

// The AVX2/FMA kernels of gemm_amd64.go. Each GEMM routine runs one
// accumulator per output element, loaded from and stored back to the
// caller's float64 array, over the terms in the order given, with
// VFMADD231PD: acc = a·b + acc rounded once, which equals Go's rounded
// product then rounded sum because a float32×float32 product is exact
// in float64. subScaled, at the end, fuses nothing. The caller has
// bounds-checked every range read or written.

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

// func subScaled(dst, x []float64, a float64)
//
// dst[i] -= a·x[i] with VMULPD then VSUBPD, never FMA: each element is
// rounded twice, as Go's scalar MULSD and SUBSD round it. x[i] is the
// product's first operand and dst[i] the difference's, as in the
// compiled Go loop, so a NaN meeting a NaN keeps the same payload.
// len(x) is len(dst).
TEXT ·subScaled(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-16, DX
	JEQ sub4

	PCALIGN $32

sub16loop:
	VMOVUPD (SI)(BX*8), Y1
	VMOVUPD 32(SI)(BX*8), Y2
	VMOVUPD 64(SI)(BX*8), Y3
	VMOVUPD 96(SI)(BX*8), Y4
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y2, Y2
	VMULPD Y0, Y3, Y3
	VMULPD Y0, Y4, Y4
	VMOVUPD (DI)(BX*8), Y5
	VMOVUPD 32(DI)(BX*8), Y6
	VMOVUPD 64(DI)(BX*8), Y7
	VMOVUPD 96(DI)(BX*8), Y8
	VSUBPD Y1, Y5, Y5
	VSUBPD Y2, Y6, Y6
	VSUBPD Y3, Y7, Y7
	VSUBPD Y4, Y8, Y8
	VMOVUPD Y5, (DI)(BX*8)
	VMOVUPD Y6, 32(DI)(BX*8)
	VMOVUPD Y7, 64(DI)(BX*8)
	VMOVUPD Y8, 96(DI)(BX*8)
	ADDQ $16, BX
	CMPQ BX, DX
	JLT sub16loop

sub4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ BX, DX
	JGE subtail

sub4loop:
	VMOVUPD (SI)(BX*8), Y1
	VMULPD Y0, Y1, Y1
	VMOVUPD (DI)(BX*8), Y5
	VSUBPD Y1, Y5, Y5
	VMOVUPD Y5, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, DX
	JLT sub4loop

subtail:
	CMPQ BX, CX
	JGE subdone

subtailloop:
	VMOVSD (SI)(BX*8), X1
	VMULSD X0, X1, X1
	VMOVSD (DI)(BX*8), X5
	VSUBSD X1, X5, X5
	VMOVSD X5, (DI)(BX*8)
	INCQ BX
	CMPQ BX, CX
	JLT subtailloop

subdone:
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
