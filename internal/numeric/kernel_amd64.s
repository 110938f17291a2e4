#include "textflag.h"

// The 8-wide passes of SolveWide in AVX2 (see kernel_amd64.go). The eight
// right-hand sides of row i are x[8i : 8i+8], two YMM registers; a is
// held in Y0 (lanes 0-3) and Y1 (lanes 4-7). Per position the value is
// broadcast once, multiplied and subtracted on its own: an FMA would skip
// the rounding of the product and lose Solve's bits. Each multiply takes
// its operands in the order the compiler gives sub8's and dot8's, so a
// NaN propagates as it does there. Every row index is sign-extended and
// compared unsigned with len(x)/8 before x is touched.

// func sub8Asm(x []float64, rs []int32, vs []float64, a *[8]float64) int
TEXT ·sub8Asm(SB), NOSPLIT, $0-88
	MOVQ    x_base+0(FP), DI
	MOVQ    x_len+8(FP), R8
	SHRQ    $3, R8
	MOVQ    rs_base+24(FP), SI
	MOVQ    rs_len+32(FP), CX
	MOVQ    vs_base+48(FP), DX
	MOVQ    a+72(FP), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	XORQ    BX, BX
	TESTQ   CX, CX
	JZ      done

loop:
	MOVLQSX      (SI)(BX*4), R9
	CMPQ         R9, R8
	JAE          done
	SHLQ         $6, R9
	VBROADCASTSD (DX)(BX*8), Y2
	VMULPD       Y0, Y2, Y3          // v*a[0:4]
	VMULPD       Y1, Y2, Y4          // v*a[4:8]
	VMOVUPD      (DI)(R9*1), Y5
	VMOVUPD      32(DI)(R9*1), Y6
	VSUBPD       Y3, Y5, Y5          // y[0:4] - v*a[0:4]
	VSUBPD       Y4, Y6, Y6
	VMOVUPD      Y5, (DI)(R9*1)
	VMOVUPD      Y6, 32(DI)(R9*1)
	INCQ         BX
	CMPQ         BX, CX
	JLT          loop

done:
	VZEROUPPER
	MOVQ BX, ret+80(FP)
	RET

// func dot8Asm(x []float64, rs []int32, vs []float64, a *[8]float64) int
TEXT ·dot8Asm(SB), NOSPLIT, $0-88
	MOVQ    x_base+0(FP), DI
	MOVQ    x_len+8(FP), R8
	SHRQ    $3, R8
	MOVQ    rs_base+24(FP), SI
	MOVQ    rs_len+32(FP), CX
	MOVQ    vs_base+48(FP), DX
	MOVQ    a+72(FP), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	XORQ    BX, BX
	TESTQ   CX, CX
	JZ      store

loop:
	MOVLQSX      (SI)(BX*4), R9
	CMPQ         R9, R8
	JAE          bad
	SHLQ         $6, R9
	VBROADCASTSD (DX)(BX*8), Y2
	VMOVUPD      (DI)(R9*1), Y3
	VMOVUPD      32(DI)(R9*1), Y4
	VMULPD       Y2, Y3, Y3          // y[0:4]*v
	VMULPD       Y2, Y4, Y4
	VSUBPD       Y3, Y0, Y0          // a[0:4] - y[0:4]*v
	VSUBPD       Y4, Y1, Y1
	INCQ         BX
	CMPQ         BX, CX
	JLT          loop

store:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)

bad:
	VZEROUPPER
	MOVQ BX, ret+80(FP)
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
