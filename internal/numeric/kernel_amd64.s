#include "textflag.h"

// The 8-wide passes of SolveWide and of the serial kernel's supernode
// chunks in AVX2 (see kernel_amd64.go). The eight
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

// func sub8x4Asm(x []float64, rs []int32, v0, v1, v2, v3 []float64, a *[4][8]float64, mask uint8) int
//
// sub8 over four sources of the same rows: a[s] is held in Y(2s) and
// Y(2s+1), the row's line in Y8 and Y9, loaded and stored once, and each
// source's value is broadcast, multiplied and subtracted in source order.
// Under a mask short of all eight lanes the loop is mloop4, which blends
// the loaded line back into the lanes outside it: Y13 and Y14 are all
// ones there.
TEXT ·sub8x4Asm(SB), NOSPLIT, $0-168
	MOVQ    x_base+0(FP), DI
	MOVQ    x_len+8(FP), R8
	SHRQ    $3, R8
	MOVQ    rs_base+24(FP), SI
	MOVQ    rs_len+32(FP), CX
	MOVQ    v0_base+48(FP), DX
	MOVQ    v1_base+72(FP), R10
	MOVQ    v2_base+96(FP), R11
	MOVQ    v3_base+120(FP), R12
	MOVQ    a+144(FP), AX
	MOVBQZX mask+152(FP), R13
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	VMOVUPD 160(AX), Y5
	VMOVUPD 192(AX), Y6
	VMOVUPD 224(AX), Y7
	XORQ    BX, BX
	TESTQ   CX, CX
	JZ      done4
	CMPQ    R13, $0xff
	JNE     masked4

loop4:
	MOVLQSX      (SI)(BX*4), R9
	CMPQ         R9, R8
	JAE          done4
	SHLQ         $6, R9
	VMOVUPD      (DI)(R9*1), Y8
	VMOVUPD      32(DI)(R9*1), Y9
	VBROADCASTSD (DX)(BX*8), Y10
	VMULPD       Y0, Y10, Y11        // v0*a[0][0:4]
	VMULPD       Y1, Y10, Y12
	VSUBPD       Y11, Y8, Y8         // y[0:4] - v0*a[0][0:4]
	VSUBPD       Y12, Y9, Y9
	VBROADCASTSD (R10)(BX*8), Y10
	VMULPD       Y2, Y10, Y11        // v1*a[1][0:4]
	VMULPD       Y3, Y10, Y12
	VSUBPD       Y11, Y8, Y8
	VSUBPD       Y12, Y9, Y9
	VBROADCASTSD (R11)(BX*8), Y10
	VMULPD       Y4, Y10, Y11        // v2*a[2][0:4]
	VMULPD       Y5, Y10, Y12
	VSUBPD       Y11, Y8, Y8
	VSUBPD       Y12, Y9, Y9
	VBROADCASTSD (R12)(BX*8), Y10
	VMULPD       Y6, Y10, Y11        // v3*a[3][0:4]
	VMULPD       Y7, Y10, Y12
	VSUBPD       Y11, Y8, Y8
	VSUBPD       Y12, Y9, Y9
	VMOVUPD      Y8, (DI)(R9*1)
	VMOVUPD      Y9, 32(DI)(R9*1)
	INCQ         BX
	CMPQ         BX, CX
	JLT          loop4
	JMP          done4

masked4:
	VMOVQ        R13, X13
	VPBROADCASTQ X13, Y13
	VPXOR        Y12, Y12, Y12
	VPAND        laneBits<>+32(SB), Y13, Y14
	VPCMPEQQ     Y12, Y14, Y14       // lanes 4-7 outside the mask
	VPAND        laneBits<>+0(SB), Y13, Y13
	VPCMPEQQ     Y12, Y13, Y13       // lanes 0-3 outside the mask

mloop4:
	MOVLQSX      (SI)(BX*4), R9
	CMPQ         R9, R8
	JAE          done4
	SHLQ         $6, R9
	VMOVUPD      (DI)(R9*1), Y8
	VMOVUPD      32(DI)(R9*1), Y9
	VBROADCASTSD (DX)(BX*8), Y10
	VMULPD       Y0, Y10, Y11
	VMULPD       Y1, Y10, Y12
	VSUBPD       Y11, Y8, Y8
	VSUBPD       Y12, Y9, Y9
	VBROADCASTSD (R10)(BX*8), Y10
	VMULPD       Y2, Y10, Y11
	VMULPD       Y3, Y10, Y12
	VSUBPD       Y11, Y8, Y8
	VSUBPD       Y12, Y9, Y9
	VBROADCASTSD (R11)(BX*8), Y10
	VMULPD       Y4, Y10, Y11
	VMULPD       Y5, Y10, Y12
	VSUBPD       Y11, Y8, Y8
	VSUBPD       Y12, Y9, Y9
	VBROADCASTSD (R12)(BX*8), Y10
	VMULPD       Y6, Y10, Y11
	VMULPD       Y7, Y10, Y12
	VSUBPD       Y11, Y8, Y8
	VSUBPD       Y12, Y9, Y9
	VBLENDVPD    Y13, (DI)(R9*1), Y8, Y8   // outside the mask ? y : y - ...
	VBLENDVPD    Y14, 32(DI)(R9*1), Y9, Y9
	VMOVUPD      Y8, (DI)(R9*1)
	VMOVUPD      Y9, 32(DI)(R9*1)
	INCQ         BX
	CMPQ         BX, CX
	JLT          mloop4

done4:
	VZEROUPPER
	MOVQ BX, ret+160(FP)
	RET

// func sub8mAsm(x []float64, rs []int32, vs []float64, a *[8]float64, mask uint8) int
//
// sub8 on the lanes set in mask: every lane is computed as in sub8Asm,
// and VBLENDVPD keeps the loaded value of every other lane. Y6 and Y7
// hold the lanes' selectors, all ones where mask has the lane's bit.
TEXT ·sub8mAsm(SB), NOSPLIT, $0-96
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), R8
	SHRQ         $3, R8
	MOVQ         rs_base+24(FP), SI
	MOVQ         rs_len+32(FP), CX
	MOVQ         vs_base+48(FP), DX
	MOVQ         a+72(FP), AX
	MOVBQZX      mask+80(FP), R10
	VMOVUPD      (AX), Y0
	VMOVUPD      32(AX), Y1
	VMOVQ        R10, X6
	VPBROADCASTQ X6, Y6
	VPAND        laneBits<>+32(SB), Y6, Y7
	VPCMPEQQ     laneBits<>+32(SB), Y7, Y7
	VPAND        laneBits<>+0(SB), Y6, Y6
	VPCMPEQQ     laneBits<>+0(SB), Y6, Y6
	XORQ         BX, BX
	TESTQ        CX, CX
	JZ           mdone

mloop:
	MOVLQSX      (SI)(BX*4), R9
	CMPQ         R9, R8
	JAE          mdone
	SHLQ         $6, R9
	VBROADCASTSD (DX)(BX*8), Y2
	VMULPD       Y0, Y2, Y3          // v*a[0:4]
	VMULPD       Y1, Y2, Y4
	VMOVUPD      (DI)(R9*1), Y5
	VMOVUPD      32(DI)(R9*1), Y8
	VSUBPD       Y3, Y5, Y3          // y[0:4] - v*a[0:4]
	VSUBPD       Y4, Y8, Y4
	VBLENDVPD    Y6, Y3, Y5, Y5      // lane set ? y - v*a : y
	VBLENDVPD    Y7, Y4, Y8, Y8
	VMOVUPD      Y5, (DI)(R9*1)
	VMOVUPD      Y8, 32(DI)(R9*1)
	INCQ         BX
	CMPQ         BX, CX
	JLT          mloop

mdone:
	VZEROUPPER
	MOVQ BX, ret+88(FP)
	RET

// laneBits is lane r's bit of a mask, 1<<r, in lane r.
DATA laneBits<>+0(SB)/8, $1
DATA laneBits<>+8(SB)/8, $2
DATA laneBits<>+16(SB)/8, $4
DATA laneBits<>+24(SB)/8, $8
DATA laneBits<>+32(SB)/8, $16
DATA laneBits<>+40(SB)/8, $32
DATA laneBits<>+48(SB)/8, $64
DATA laneBits<>+56(SB)/8, $128
GLOBL laneBits<>(SB), RODATA|NOPTR, $64

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
