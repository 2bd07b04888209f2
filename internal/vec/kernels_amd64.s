// AVX2 bodies of the streaming kernels in vec.go.
//
// Every kernel here is the four-accumulator Go loop it stands in for
// with the accumulators s0..s3 held as the four lanes of one ymm
// register: lane k sees elements i ≡ k (mod 4), in index order, so each
// lane performs the additions of accumulator sk in the order the Go
// loop performs them. Products are VMULPD followed by VADDPD/VSUBPD,
// never a fused multiply-add, because the Go loop rounds the product
// before it adds. A kernel covers the leading len&^3 elements and
// returns the lanes; the tail and the combine stay in Go.
//
// Operand order (Go syntax, src2, src1, dst) matters in two places:
// VSUBPD computes src1 − src2, and VMAXPD returns src2 whenever the
// comparison src1 > src2 is false, NaN included — so `VMAXPD m, a, m`
// is `if a > m { m = a }`, which never lets a NaN into m.

#include "textflag.h"

// ABSMASK(Y) fills every lane of Y with 0x7FFFFFFFFFFFFFFF, the mask
// math.Abs applies.
#define ABSMASK(Y) \
	VPCMPEQD Y, Y, Y; \
	VPSRLQ   $1, Y, Y

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7, EBX bit 5) and the OS
// saves the ymm state: OSXSAVE and AVX in leaf 1 (ECX bits 27, 28) and
// XCR0 bits 1 and 2 (SSE and AVX state) set.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JB    done
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   done
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	SHRL  $5, BX
	ANDL  $1, BX
	MOVB  BX, ret+0(FP)
done:
	RET

// func dotAVX2(x, y []float64) (s0, s1, s2, s3 float64)
TEXT ·dotAVX2(SB), NOSPLIT, $0-80
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	ANDQ   $~3, CX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0
	JMP    check
loop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
check:
	CMPQ AX, CX
	JLT  loop
	VMOVUPD Y0, s0+48(FP)
	VZEROUPPER
	RET

// func sumSquaresAVX2(x []float64, inv float64) (s0, s1, s2, s3 float64)
//
// Lane sums of (x_i·inv)², the scaled product rounded before it is
// squared.
TEXT ·sumSquaresAVX2(SB), NOSPLIT, $0-64
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD inv+24(FP), Y2
	ANDQ         $~3, CX
	XORQ         AX, AX
	VXORPD       Y0, Y0, Y0
	JMP          check
loop:
	VMULPD (SI)(AX*8), Y2, Y1
	VMULPD Y1, Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ   $4, AX
check:
	CMPQ AX, CX
	JLT  loop
	VMOVUPD Y0, s0+32(FP)
	VZEROUPPER
	RET

// func normInfAVX2(x []float64) (m0, m1, m2, m3 float64)
TEXT ·normInfAVX2(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	ANDQ   $~3, CX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0
	ABSMASK(Y3)
	JMP    check
loop:
	VANDPD (SI)(AX*8), Y3, Y1
	VMAXPD Y0, Y1, Y0
	ADDQ   $4, AX
check:
	CMPQ AX, CX
	JLT  loop
	VMOVUPD Y0, m0+24(FP)
	VZEROUPPER
	RET

// func dotNorm2AVX2(x, y []float64, inv float64) (s0, s1, s2, s3, n0, n1, n2, n3 float64)
//
// dotAVX2's lanes in s and sumSquaresAVX2's in n, from one load of x.
TEXT ·dotNorm2AVX2(SB), NOSPLIT, $0-120
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	MOVQ         y_base+24(FP), DI
	VBROADCASTSD inv+48(FP), Y5
	ANDQ         $~3, CX
	XORQ         AX, AX
	VXORPD       Y0, Y0, Y0
	VXORPD       Y4, Y4, Y4
	JMP          check
loop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(AX*8), Y1, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  Y5, Y1, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y4, Y4
	ADDQ    $4, AX
check:
	CMPQ AX, CX
	JLT  loop
	VMOVUPD Y0, s0+56(FP)
	VMOVUPD Y4, n0+88(FP)
	VZEROUPPER
	RET

// func axpyAVX2(a float64, x, y []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y2
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	ANDQ         $~3, CX
	XORQ         AX, AX
	JMP          check
loop:
	VMULPD  (SI)(AX*8), Y2, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
check:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func axpyDotAVX2(a float64, x, y, z []float64) (s0, s1, s2, s3 float64)
TEXT ·axpyDotAVX2(SB), NOSPLIT, $0-112
	VBROADCASTSD a+0(FP), Y2
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	MOVQ         z_base+56(FP), DX
	ANDQ         $~3, CX
	XORQ         AX, AX
	VXORPD       Y0, Y0, Y0
	JMP          check
loop:
	VMULPD  (SI)(AX*8), Y2, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	VMULPD  (DX)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
check:
	CMPQ AX, CX
	JLT  loop
	VMOVUPD Y0, s0+80(FP)
	VZEROUPPER
	RET

// func axpyPairNormInfAVX2(a float64, x, p, r, q []float64) (m0, m1, m2, m3 float64)
TEXT ·axpyPairNormInfAVX2(SB), NOSPLIT, $0-136
	VBROADCASTSD a+0(FP), Y2
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         p_base+32(FP), DI
	MOVQ         r_base+56(FP), DX
	MOVQ         q_base+80(FP), BX
	ANDQ         $~3, CX
	XORQ         AX, AX
	VXORPD       Y0, Y0, Y0
	ABSMASK(Y3)
	JMP          check
loop:
	VMULPD  (DI)(AX*8), Y2, Y1
	VADDPD  (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (SI)(AX*8)
	VMULPD  (BX)(AX*8), Y2, Y1
	VMOVUPD (DX)(AX*8), Y4
	VSUBPD  Y1, Y4, Y4
	VMOVUPD Y4, (DX)(AX*8)
	VANDPD  Y3, Y4, Y4
	VMAXPD  Y0, Y4, Y0
	ADDQ    $4, AX
check:
	CMPQ AX, CX
	JLT  loop
	VMOVUPD Y0, m0+104(FP)
	VZEROUPPER
	RET

// func aypxAVX2(a float64, x, y []float64)
TEXT ·aypxAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y2
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	ANDQ         $~3, CX
	XORQ         AX, AX
	JMP          check
loop:
	VMULPD  (DI)(AX*8), Y2, Y1
	VADDPD  (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
check:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func subAVX2(dst, x, y []float64)
TEXT ·subAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DX
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), DI
	ANDQ $~3, CX
	XORQ AX, AX
	JMP  check
loop:
	VMOVUPD (SI)(AX*8), Y1
	VSUBPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DX)(AX*8)
	ADDQ    $4, AX
check:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func scaleToAVX2(dst []float64, a float64, x []float64)
TEXT ·scaleToAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DX
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD a+24(FP), Y2
	MOVQ         x_base+32(FP), SI
	ANDQ         $~3, CX
	XORQ         AX, AX
	JMP          check
loop:
	VMULPD  (SI)(AX*8), Y2, Y1
	VMOVUPD Y1, (DX)(AX*8)
	ADDQ    $4, AX
check:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func stencilAVX2(dst, b, x []float64, off []int, coef []float64, mask []uint16, lo, hi int)
//
// Lane k is row i+k. Each block of four rows starts from +0 and takes
// the diagonals in ascending order, one VMULPD of the broadcast
// coefficient with the contiguous x[i+off : i+off+4] and one VADDPD per
// diagonal. A block whose four mask words are all full (R12 holds four
// full words) takes the unmasked loop; any other ANDs each product with
// a lane mask made from bit d of the four words, so an absent entry
// adds +0. With b present the block stores b − sum.
TEXT ·stencilAVX2(SB), NOSPLIT, $0-160
	MOVQ dst_base+0(FP), DI
	MOVQ b_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	MOVQ off_base+72(FP), R9
	MOVQ off_len+80(FP), R10
	MOVQ coef_base+96(FP), BX
	MOVQ mask_base+120(FP), DX
	MOVQ lo+144(FP), AX

	// R12 ← (1<<nd − 1) in each of its four words.
	MOVQ  R10, CX
	MOVQ  $1, R12
	SHLQ  CX, R12
	DECQ  R12
	MOVQ  $0x0001000100010001, R13
	IMULQ R13, R12
	MOVQ  hi+152(FP), CX

	// Y13 ← 1 in each lane: bit 0, shifted left once per diagonal.
	VPCMPEQQ Y13, Y13, Y13
	VPSRLQ   $63, Y13, Y13
	JMP      check
rowloop:
	VXORPD Y0, Y0, Y0
	XORQ   R13, R13
	CMPQ   R12, (DX)(AX*2)
	JNE    slow
fast:
	MOVQ         (R9)(R13*8), R14
	ADDQ         AX, R14
	VBROADCASTSD (BX)(R13*8), Y1
	VMULPD       (SI)(R14*8), Y1, Y2
	VADDPD       Y2, Y0, Y0
	INCQ         R13
	CMPQ         R13, R10
	JLT          fast
	JMP          finish
slow:
	VPMOVZXWQ (DX)(AX*2), Y10
	VMOVDQA   Y13, Y11
sloop:
	MOVQ         (R9)(R13*8), R14
	ADDQ         AX, R14
	VPAND        Y10, Y11, Y12
	VPCMPEQQ     Y12, Y11, Y12
	VBROADCASTSD (BX)(R13*8), Y1
	VMULPD       (SI)(R14*8), Y1, Y2
	VANDPD       Y12, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VPSLLQ       $1, Y11, Y11
	INCQ         R13
	CMPQ         R13, R10
	JLT          sloop
finish:
	TESTQ R8, R8
	JZ    store
	VMOVUPD (R8)(AX*8), Y4
	VSUBPD  Y0, Y4, Y0
store:
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
check:
	CMPQ AX, CX
	JLT  rowloop
	VZEROUPPER
	RET
