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
//
// Four chains of `VMAXPD m, a, m`, one per block of a 16-element
// group, so the loop is not bound by the maximum's latency; a block
// left over joins the first. No chain holds a NaN, so combining them in
// any order gives each lane the maximum of its elements.
TEXT ·normInfAVX2(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   CX, DX
	ANDQ   $~15, DX
	ANDQ   $~3, CX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	ABSMASK(Y4)
	JMP    check16
loop16:
	VANDPD (SI)(AX*8), Y4, Y5
	VMAXPD Y0, Y5, Y0
	VANDPD 32(SI)(AX*8), Y4, Y6
	VMAXPD Y1, Y6, Y1
	VANDPD 64(SI)(AX*8), Y4, Y7
	VMAXPD Y2, Y7, Y2
	VANDPD 96(SI)(AX*8), Y4, Y8
	VMAXPD Y3, Y8, Y3
	ADDQ   $16, AX
check16:
	CMPQ AX, DX
	JLT  loop16
	JMP  check4
loop4:
	VANDPD (SI)(AX*8), Y4, Y5
	VMAXPD Y0, Y5, Y0
	ADDQ   $4, AX
check4:
	CMPQ    AX, CX
	JLT     loop4
	VMAXPD  Y1, Y0, Y0
	VMAXPD  Y3, Y2, Y2
	VMAXPD  Y2, Y0, Y0
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

// func stencilAVX2(dst, b, x []float64, off *[7]int, coef *[7]float64, mask []uint16, lo, hi, pad int)
//
// Lane k is row i+k, and the seven diagonal slots are held for the
// whole call: slot s's base x + off[s] in SI, BX, R9…R13 and its
// broadcast coefficient in Y9…Y15. StencilMulVec fills the leading pad
// slots (7 − the diagonal count) with offset 0 and coefficient +0.
// Every block starts from +0 and takes the slots in ascending order,
// one VMULPD and one VADDPD each, never a fused multiply-add.
//
// A block whose four mask words are all 0x7F (R14 holds four of them)
// loads x whole; when the next block is full too, the two run as two
// independent chains. Any other block, and every block when pad > 0,
// loads x with VMASKMOVPD under lane k = bit s − pad of row i+k's word,
// shifted to the sign: an absent lane reads nothing and multiplies +0,
// adding c·(+0) = ±0 (c is finite) to a sum that started at +0 and so
// is never −0 — the bits of a sum that skipped the entry. A slot whose
// four lanes are all absent (every pad slot; a grid's outward diagonal
// on its first and last planes) is skipped, which gives those bits too:
// a masked load still walks to the page it points at, which there lies
// outside x, and one that would fault costs a microcode assist. With b
// present a block stores b − sum.
#define FULL1(R, YC) \
	VMULPD (R)(AX*8), YC, Y2; \
	VADDPD Y2, Y0, Y0

#define FULL2(R, YC) \
	VMULPD (R)(AX*8), YC, Y2; \
	VMULPD 32(R)(AX*8), YC, Y3; \
	VADDPD Y2, Y0, Y0; \
	VADDPD Y3, Y1, Y1

#define MASKED(S, R, YC, L) \
	VPSLLQ     $(63-S), Y4, Y2; \
	VTESTPD    Y2, Y2; \
	JZ         L; \
	VMASKMOVPD (R)(AX*8), Y2, Y2; \
	VMULPD     YC, Y2, Y2; \
	VADDPD     Y2, Y0, Y0; \
L:

TEXT ·stencilAVX2(SB), NOSPLIT, $0-136
	MOVQ x_base+48(FP), SI
	MOVQ off+72(FP), R14
	MOVQ 8(R14), BX
	LEAQ (SI)(BX*8), BX
	MOVQ 16(R14), R9
	LEAQ (SI)(R9*8), R9
	MOVQ 24(R14), R10
	LEAQ (SI)(R10*8), R10
	MOVQ 32(R14), R11
	LEAQ (SI)(R11*8), R11
	MOVQ 40(R14), R12
	LEAQ (SI)(R12*8), R12
	MOVQ 48(R14), R13
	LEAQ (SI)(R13*8), R13
	MOVQ (R14), R14
	LEAQ (SI)(R14*8), SI

	MOVQ         coef+80(FP), R14
	VBROADCASTSD (R14), Y9
	VBROADCASTSD 8(R14), Y10
	VBROADCASTSD 16(R14), Y11
	VBROADCASTSD 24(R14), Y12
	VBROADCASTSD 32(R14), Y13
	VBROADCASTSD 40(R14), Y14
	VBROADCASTSD 48(R14), Y15
	VMOVQ        pad+128(FP), X8

	MOVQ dst_base+0(FP), DI
	MOVQ b_base+24(FP), R8
	MOVQ mask_base+88(FP), DX
	MOVQ lo+112(FP), AX
	MOVQ hi+120(FP), CX
	SUBQ $4, CX // a block at AX fits iff AX ≤ CX, a pair iff AX < CX
	MOVQ $0x007F007F007F007F, R14
	CMPQ pad+128(FP), $0
	JNE  padded

block:
	CMPQ AX, CX
	JGT  done
	CMPQ R14, (DX)(AX*2)
	JNE  masked
	CMPQ AX, CX
	JGE  single
	CMPQ R14, 8(DX)(AX*2)
	JNE  single
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	FULL2(SI, Y9)
	FULL2(BX, Y10)
	FULL2(R9, Y11)
	FULL2(R10, Y12)
	FULL2(R11, Y13)
	FULL2(R12, Y14)
	FULL2(R13, Y15)
	TESTQ R8, R8
	JZ    storepair
	VMOVUPD (R8)(AX*8), Y2
	VSUBPD  Y0, Y2, Y0
	VMOVUPD 32(R8)(AX*8), Y3
	VSUBPD  Y1, Y3, Y1
storepair:
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     block

single:
	VXORPD Y0, Y0, Y0
	FULL1(SI, Y9)
	FULL1(BX, Y10)
	FULL1(R9, Y11)
	FULL1(R10, Y12)
	FULL1(R11, Y13)
	FULL1(R12, Y14)
	FULL1(R13, Y15)
	JMP finish

padded:
	CMPQ AX, CX
	JGT  done
masked:
	VPMOVZXWQ (DX)(AX*2), Y4
	VPSLLQ    X8, Y4, Y4
	VXORPD    Y0, Y0, Y0
	MASKED(0, SI, Y9, absent0)
	MASKED(1, BX, Y10, absent1)
	MASKED(2, R9, Y11, absent2)
	MASKED(3, R10, Y12, absent3)
	MASKED(4, R11, Y13, absent4)
	MASKED(5, R12, Y14, absent5)
	MASKED(6, R13, Y15, absent6)

finish:
	TESTQ R8, R8
	JZ    store
	VMOVUPD (R8)(AX*8), Y2
	VSUBPD  Y0, Y2, Y0
store:
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    pad+128(FP), $0
	JEQ     block
	JMP     padded

done:
	VZEROUPPER
	RET

// func cpuHasFMA() bool
//
// FMA is CPUID leaf 1, ECX bit 12. Its registers are the AVX state
// whose saving by the OS cpuHasAVX2 checks, so the two together are
// math.Exp's condition for its FMA path.
TEXT ·cpuHasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $12, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// Constants of math.archExp (math/exp_amd64.s), four lanes each, as the
// bit patterns its assembler wrote.
#define EXPQ(off, bits) \
	DATA expq<>+(off+0)(SB)/8, bits; \
	DATA expq<>+(off+8)(SB)/8, bits; \
	DATA expq<>+(off+16)(SB)/8, bits; \
	DATA expq<>+(off+24)(SB)/8, bits

EXPQ(0, $0x7fffffffffffffff)   // |·|
EXPQ(32, $0x4086200000000000)  // 708
EXPQ(64, $0x3ff71547652b82fe)  // LOG2E
EXPQ(96, $0x3fe62e42fefa3000)  // LN2U
EXPQ(128, $0x3d53de6af278ece6) // LN2L
EXPQ(160, $0x3fb0000000000000) // 0.0625
EXPQ(192, $0x3efa01a01a01a01a) // 1/8!
EXPQ(224, $0x3f2a01a01a01a01a) // 1/7!
EXPQ(256, $0x3f56c16c16c16c17) // 1/6!
EXPQ(288, $0x3f81111111111111) // 1/5!
EXPQ(320, $0x3fa5555555555555) // 1/4!
EXPQ(352, $0x3fc5555555555555) // 1/3!
EXPQ(384, $0x3fe0000000000000) // 1/2
EXPQ(416, $0x3ff0000000000000) // 1
EXPQ(448, $0x4000000000000000) // 2
EXPQ(480, $0x00000000000003ff) // the exponent bias, as an integer
GLOBL expq<>(SB), RODATA|NOPTR, $512

// func expAVX2(dst, x []float64) int
//
// math.archExp's FMA path, lane k being element i+k: the same
// VFNMADD231/VFMADD213 steps in the same order on the same constants,
// VCVTPD2DQ rounding x·log2(e) to nearest as its CVTSD2SL does, and
// 2^k built and multiplied in as its ldexp step does for the k that
// |x| ≤ 708 gives (|k| ≤ 1021: no overflow, no subnormal scale). It
// writes the leading groups of four of len(x)&^3 and returns how many
// elements it wrote, stopping before the first group with a lane
// outside ±708 or a NaN, which math.Exp's special cases take.
TEXT ·expAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX
	JMP  check
loop:
	VMOVUPD      (SI)(AX*8), Y0
	VANDPD       expq<>+0(SB), Y0, Y1
	VCMPPD       $0x12, expq<>+32(SB), Y1, Y1 // |x| ≤ 708 (LE_OQ)
	VMOVMSKPD    Y1, DX
	CMPL         DX, $15
	JNE          done
	VMULPD       expq<>+64(SB), Y0, Y1
	VCVTPD2DQY   Y1, X2 // k
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD expq<>+96(SB), Y1, Y0
	VFNMADD231PD expq<>+128(SB), Y1, Y0
	VMULPD       expq<>+160(SB), Y0, Y0
	VMOVUPD      expq<>+192(SB), Y1
	VFMADD213PD  expq<>+224(SB), Y0, Y1
	VFMADD213PD  expq<>+256(SB), Y0, Y1
	VFMADD213PD  expq<>+288(SB), Y0, Y1
	VFMADD213PD  expq<>+320(SB), Y0, Y1
	VFMADD213PD  expq<>+352(SB), Y0, Y1
	VFMADD213PD  expq<>+384(SB), Y0, Y1
	VFMADD213PD  expq<>+416(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expq<>+448(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expq<>+448(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expq<>+448(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expq<>+448(SB), Y0, Y1
	VFMADD213PD  expq<>+416(SB), Y1, Y0
	VPMOVSXDQ    X2, Y2
	VPADDQ       expq<>+480(SB), Y2, Y2
	VPSLLQ       $52, Y2, Y2 // 2^k
	VMULPD       Y2, Y0, Y0
	VMOVUPD      Y0, (DI)(AX*8)
	ADDQ         $4, AX
check:
	CMPQ AX, CX
	JLT  loop
done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
