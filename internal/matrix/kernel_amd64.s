//go:build !purego

#include "textflag.h"

// func cpuidECX1() uint32
TEXT ·cpuidECX1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func cpuidEBX7() uint32
TEXT ·cpuidEBX7(SB), NOSPLIT, $0-4
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ret+0(FP)
	RET

// func xgetbvLow() uint32
TEXT ·xgetbvLow(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// One k step of one YMM tile row: broadcast a[row][k] into Y10, multiply it
// by the row of b in Y8:Y9 and add the two products to the row's
// accumulators. No mask: the caller guarantees b is finite, so a term with
// a[row][k] == 0 adds ±0, which leaves an accumulator bit-identical (it
// starts at +0 and so is never -0).
#define MULROW(arow, acc0, acc1) \
	VBROADCASTSD (arow)(BX*8), Y10 \
	VMULPD       Y8, Y10, Y11      \
	VMULPD       Y9, Y10, Y12      \
	VADDPD       Y11, acc0, acc0   \
	VADDPD       Y12, acc1, acc1

// func mul4x8AVX(c, a, b *float64, n, lda, ldb, ldc int)
//
// c[r][0:8] = sum over k in [0, n) of a[r][k]*b[k][0:8] for r in [0, 4), in
// ascending k. Leading dimensions are in elements.
TEXT ·mul4x8AVX(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ lda+32(FP), R8
	MOVQ ldb+40(FP), R9
	MOVQ ldc+48(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (SI)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ BX, BX

mulloop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	MULROW(SI, Y0, Y1)
	MULROW(R11, Y2, Y3)
	MULROW(R12, Y4, Y5)
	MULROW(R13, Y6, Y7)
	ADDQ R9, DX
	INCQ BX
	CMPQ BX, CX
	JLT  mulloop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R10, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    R10, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    R10, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// MULROW with ZMM registers: eight lanes per register, so one tile row is
// 16 columns. AVX-512F instructions only.
#define MULROWZ(arow, acc0, acc1) \
	VBROADCASTSD (arow)(BX*8), Z10 \
	VMULPD       Z8, Z10, Z11      \
	VMULPD       Z9, Z10, Z12      \
	VADDPD       Z11, acc0, acc0   \
	VADDPD       Z12, acc1, acc1

// func mul4x16AVX512(c, a, b *float64, n, lda, ldb, ldc int)
//
// mul4x8AVX on a 4x16 tile: c[r][0:16] = sum over k in [0, n) of
// a[r][k]*b[k][0:16] for r in [0, 4), in ascending k.
TEXT ·mul4x16AVX512(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ lda+32(FP), R8
	MOVQ ldb+40(FP), R9
	MOVQ ldc+48(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (SI)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ BX, BX

mulloopz:
	VMOVUPD (DX), Z8
	VMOVUPD 64(DX), Z9
	MULROWZ(SI, Z0, Z1)
	MULROWZ(R11, Z2, Z3)
	MULROWZ(R12, Z4, Z5)
	MULROWZ(R13, Z6, Z7)
	ADDQ R9, DX
	INCQ BX
	CMPQ BX, CX
	JLT  mulloopz

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ    R10, DI
	VMOVUPD Z2, (DI)
	VMOVUPD Z3, 64(DI)
	ADDQ    R10, DI
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	ADDQ    R10, DI
	VMOVUPD Z6, (DI)
	VMOVUPD Z7, 64(DI)
	VZEROUPPER
	RET

// Multiply the 16 lanes at (xk) by the broadcast factor Y4 into Y5..Y8.
#define MUL16(xk) \
	VMULPD (xk), Y4, Y5   \
	VMULPD 32(xk), Y4, Y6 \
	VMULPD 64(xk), Y4, Y7 \
	VMULPD 96(xk), Y4, Y8

// func solve16AVX(lu, x *float64, n, ldlu, ldx int)
//
// Forward then back substitution on the 16 columns starting at x, against
// the packed unit-lower L and upper U in lu, with SolveBatchInto's per-column
// operation sequence: forward s = sum_{k<i} L[i][k]*x[k] from +0 in
// ascending k, then x[i] -= s; back s = x[i], s -= U[i][k]*x[k] for
// ascending k > i, then x[i] = s / U[i][i].
TEXT ·solve16AVX(SB), NOSPLIT, $0-40
	MOVQ lu+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ ldlu+24(FP), R8
	MOVQ ldx+32(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9

	// Forward substitution, rows 1..n-1.
	MOVQ $1, R10
	LEAQ (DI)(R8*1), R11 // &L[i][0]
	LEAQ (SI)(R9*1), R12 // &x[i][0]
	CMPQ R10, CX
	JGE  back

fwdrow:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R13
	XORQ   BX, BX

fwdk:
	VBROADCASTSD (R11)(BX*8), Y4
	MUL16(R13)
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         R9, R13
	INCQ         BX
	CMPQ         BX, R10
	JLT          fwdk

	VMOVUPD (R12), Y5
	VMOVUPD 32(R12), Y6
	VMOVUPD 64(R12), Y7
	VMOVUPD 96(R12), Y8
	VSUBPD  Y0, Y5, Y5
	VSUBPD  Y1, Y6, Y6
	VSUBPD  Y2, Y7, Y7
	VSUBPD  Y3, Y8, Y8
	VMOVUPD Y5, (R12)
	VMOVUPD Y6, 32(R12)
	VMOVUPD Y7, 64(R12)
	VMOVUPD Y8, 96(R12)
	ADDQ    R8, R11
	ADDQ    R9, R12
	INCQ    R10
	CMPQ    R10, CX
	JLT     fwdrow

back:
	// Back substitution, rows n-1..0. Whether or not the forward loop ran,
	// R11 and R12 now point at row n of lu and x: step back one row.
	MOVQ CX, R10
	DECQ R10
	SUBQ R8, R11
	SUBQ R9, R12

backrow:
	VMOVUPD (R12), Y0
	VMOVUPD 32(R12), Y1
	VMOVUPD 64(R12), Y2
	VMOVUPD 96(R12), Y3
	LEAQ    (R12)(R9*1), R13
	LEAQ    1(R10), BX
	CMPQ    BX, CX
	JGE     backdiv

backk:
	VBROADCASTSD (R11)(BX*8), Y4
	MUL16(R13)
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3
	ADDQ         R9, R13
	INCQ         BX
	CMPQ         BX, CX
	JLT          backk

backdiv:
	VBROADCASTSD (R11)(R10*8), Y4
	VDIVPD       Y4, Y0, Y0
	VDIVPD       Y4, Y1, Y1
	VDIVPD       Y4, Y2, Y2
	VDIVPD       Y4, Y3, Y3
	VMOVUPD      Y0, (R12)
	VMOVUPD      Y1, 32(R12)
	VMOVUPD      Y2, 64(R12)
	VMOVUPD      Y3, 96(R12)
	SUBQ         R8, R11
	SUBQ         R9, R12
	DECQ         R10
	JGE          backrow

	VZEROUPPER
	RET

DATA expmask<>+0(SB)/8, $0x7ff0000000000000
GLOBL expmask<>(SB), RODATA|NOPTR, $8

// func finite4AVX(x *float64, n int) bool
//
// Reports whether none of the n elements at x, n a multiple of 4, has an
// all-ones exponent (Inf or NaN). Each element is ANDed with the exponent
// mask, and a lane whose masked bits equal the mask (+Inf as a float) is
// all ones after the compare; the compares are ORed together and tested
// once, after the last element. AVX only: every step is a float op.
TEXT ·finite4AVX(SB), NOSPLIT, $0-17
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD expmask<>(SB), Y15
	VXORPD       Y4, Y4, Y4
	VXORPD       Y5, Y5, Y5
	SHLQ         $3, CX
	ADDQ         SI, CX // end of x
	LEAQ         -128(CX), DX // last start of a whole 16-element block

loop16:
	CMPQ    SI, DX
	JGT     loop4
	VANDPD  (SI), Y15, Y0
	VANDPD  32(SI), Y15, Y1
	VANDPD  64(SI), Y15, Y2
	VANDPD  96(SI), Y15, Y3
	VCMPPD  $0, Y15, Y0, Y0
	VCMPPD  $0, Y15, Y1, Y1
	VCMPPD  $0, Y15, Y2, Y2
	VCMPPD  $0, Y15, Y3, Y3
	VORPD   Y0, Y4, Y4
	VORPD   Y1, Y5, Y5
	VORPD   Y2, Y4, Y4
	VORPD   Y3, Y5, Y5
	ADDQ    $128, SI
	JMP     loop16

loop4:
	CMPQ    SI, CX
	JGE     done
	VANDPD  (SI), Y15, Y0
	VCMPPD  $0, Y15, Y0, Y0
	VORPD   Y0, Y4, Y4
	ADDQ    $32, SI
	JMP     loop4

done:
	VORPD     Y5, Y4, Y4
	VMOVMSKPD Y4, AX
	TESTL     AX, AX
	SETEQ     ret+16(FP)
	VZEROUPPER
	RET

// func subScaledAVX(x, u *float64, f float64, w int)
//
// x[j] = x[j] - f*u[j] for j in [0, w), w a multiple of 4: one elimination
// row update, one multiply and one subtraction per element, each rounded,
// in 16-column then 4-column register tiles.
TEXT ·subScaledAVX(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), DI
	MOVQ         u+8(FP), DX
	VBROADCASTSD f+16(FP), Y4
	MOVQ         w+24(FP), R9

block16:
	CMPQ    R9, $16
	JLT     block4
	MUL16(DX)
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VSUBPD  Y5, Y0, Y0
	VSUBPD  Y6, Y1, Y1
	VSUBPD  Y7, Y2, Y2
	VSUBPD  Y8, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, R9
	JMP     block16

block4:
	CMPQ    R9, $4
	JLT     done4
	VMULPD  (DX), Y4, Y5
	VMOVUPD (DI), Y0
	VSUBPD  Y5, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, R9
	JMP     block4

done4:
	VZEROUPPER
	RET
