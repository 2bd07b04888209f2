// The row kernel of appendGridLogs (fused.go).
//
// An element's quantization is a chain of seven dependent operations
// through the reconstruction of the element before it (p = prev + c;
// v − p; ×inv; +magic; −magic; ×2eb; +p), so one row runs at the
// chain's latency whatever else the core could overlap. The rows of a
// slab are independent chains, except that each reads the one before
// as its row above: the kernel runs up to four rows, each one element
// behind the row before, so that row k's element t−k needs only what
// row k−1 finished in the step before, and four chains overlap. The
// logarithms are not on any chain: a first loop takes fastLog of all
// the rows four lanes at a time into the reconstruction slots, which
// the chains then read and overwrite.
//
// Every element is the Go loop's, operation for operation and in its
// order: each lane of a packed operation and each scalar one rounds as
// Go's does, and nothing is fused (no FMA), so the codes, the
// reconstructions and the signs come out bit for bit. The only liberty
// is a commuted operand of an addition or a multiplication.
//
// Operand order (Go syntax): VSUBSD a, b, c is c = b − a, and
// VUCOMISD a, b sets the flags of b compared with a, so `VUCOMISD X2,
// X8; JBE` is "unless X8 > X2", taken for a NaN as Go's comparisons are
// false for one.

//go:build !amd64.v3

#include "textflag.h"

// Constants, four lanes each, as bit patterns so that they are Go's.
#define LANES(off, bits) \
	DATA logq<>+(off+0)(SB)/8, bits; \
	DATA logq<>+(off+8)(SB)/8, bits; \
	DATA logq<>+(off+16)(SB)/8, bits; \
	DATA logq<>+(off+24)(SB)/8, bits

LANES(0, $0x3ff0000000000000)   // 1 (and the exponent of m)
LANES(32, $0x000fffffffffffff)  // the mantissa
LANES(64, $0x4330000000000000)  // 2^52, with a biased exponent in its low bits
LANES(96, $0x43300000000003ff)  // 2^52 + 1023
LANES(128, $0x3fe62e42fefa39ef) // math.Ln2
LANES(160, $0x3fc999999999999a) // 0.2
LANES(192, $0x3fd0000000000000) // 0.25
LANES(224, $0x3fd5555555555555) // 1.0/3
LANES(256, $0x3fe0000000000000) // 0.5
LANES(288, $0x7fffffffffffffff) // |·|
LANES(320, $0x0010000000000000) // the smallest normal
LANES(352, $0x4338000000000000) // roundMagic = 1.5·2^52
LANES(384, $0x7ff0000000000000) // +Inf
GLOBL logq<>(SB), RODATA|NOPTR, $416

// TAB(reg, off): reg ← 16·(top seven mantissa bits of the element at
// byte offset R13+off), its row's offset in logTab.
#define TAB(reg, off) \
	MOVQ off(SI)(R13*1), reg; \
	SHRQ $41, reg; \
	ANDL $0x7f0, reg

// QUANT(idx, prev, unpred): quantStep of v (X0) against p (X1): the
// code to codes[idx], the reconstruction to r[idx] and to prev; an
// unpredictable value jumps to unpred, its reconstruction — v — being
// in r[idx] already. The code is half + bin, read off t = binF + magic,
// whose bits are magic's plus bin while |binF| < 2^51.
#define QUANT(idx, prev, unpred) \
	VSUBSD    X1, X0, X2; \
	VMULSD    X7, X2, X2; \
	VUCOMISD  X2, X8; \
	JBE       unpred; \
	VUCOMISD  X9, X2; \
	JBE       unpred; \
	VADDSD    X10, X2, X3; \
	VSUBSD    X10, X3, X2; \
	VMULSD    X11, X2, X2; \
	VADDSD    X1, X2, prev; \
	VSUBSD    prev, X0, X2; \
	VUCOMISD  X2, X12; \
	JB        unpred; \
	VUCOMISD  X13, X2; \
	JB        unpred; \
	VMOVQ     X3, AX; \
	SUBQ      SI, AX; \
	MOVQ      AX, (DI)(idx*1); \
	VMOVSD    prev, (R8)(idx*1)

// ROW(k8, lim, off, prev, prevrow, quant, pred, unpred, skip): row k
// ≥ 1's element j = t − k, at byte offset off = 8t + k(8w − 8) of r,
// codes and back (row k of the slab behind is back + kw), when the row
// is there (lim, 8w or 0) and 0 ≤ j < w. Its row above is row k−1's
// reconstruction and the row above its back row is row k−1's back row,
// both one element ahead at prevrow, the offset of row k−1.
#define ROW(k8, lim, off, prev, prevrow, quant, pred, unpred, skip) \
	MOVQ     R13, CX;                      \
	SUBQ     $k8, CX;                      \
	CMPQ     CX, lim;                      \
	JAE      skip;                         \
	VMOVSD   (R8)(off*1), X0;              \
	TESTQ    CX, CX;                       \
	JNZ      pred;                         \
	VMOVSD   -8(R8)(prevrow*1), X1;        \
	VADDSD   (R10)(off*1), X1, X1;         \
	VSUBSD   -8(R10)(prevrow*1), X1, X1;   \
	JMP      quant;                        \
pred:                                      \
	VMOVSD   -8(R8)(prevrow*1), X1;        \
	VSUBSD   -16(R8)(prevrow*1), X1, X1;   \
	VMOVSD   (R10)(off*1), X2;             \
	VSUBSD   -8(R10)(off*1), X2, X2;       \
	VADDSD   X2, X1, X1;                   \
	VMOVSD   -8(R10)(prevrow*1), X2;       \
	VSUBSD   -16(R10)(prevrow*1), X2, X2;  \
	VSUBSD   X2, X1, X1;                   \
	VADDSD   prev, X1, X1;                 \
quant:                                     \
	QUANT(off, prev, unpred)

// func gridRowsAVX2(x, r []float64, codes []int, up, back, ub []float64, inv, twoEB, eb, limit float64, half int) (unpred int, signed, ok bool)
//
// x, r and codes hold two to four rows of w = len(up) ≥ 2 elements
// each; up, back and ub are the first row's neighbour rows as
// stencil.rows gives them, back as long as x (the zero rows are). Row
// k's are row k−1's reconstructions (up), the row after row k−1's back
// row (back) and row k−1's back row (ub). ok is false when a value is
// zero, subnormal, NaN or infinite, signed true when one is negative.
TEXT ·gridRowsAVX2(SB), NOSPLIT, $32-194
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), R12
	SHLQ $3, R12 // the rows' bytes
	MOVQ r_base+24(FP), R8
	LEAQ ·logTab(SB), DI
	XORQ R10, R10 // signs seen
	XORQ R11, R11 // zeros, subnormals, NaNs and Infs seen
	XORQ R13, R13

	// r ← fastLog(|x|), four lanes at a time; the last four overlap the
	// ones before when the rows' length is not a multiple of four.
logs:
	LEAQ 32(R13), AX
	CMPQ AX, R12
	JLE  group
	LEAQ -32(R12), R13
group:
	VMOVUPD    (SI)(R13*1), Y0
	VMOVMSKPD  Y0, AX
	ORL        AX, R10
	VANDPD     logq<>+288(SB), Y0, Y0
	VCMPPD     $0x11, logq<>+320(SB), Y0, Y1 // |x| < smallest normal (LT_OQ)
	VCMPPD     $0x15, logq<>+384(SB), Y0, Y5 // NaN or |x| = Inf: not below Inf (NLT_UQ)
	VORPD      Y5, Y1, Y1
	VMOVMSKPD  Y1, AX
	ORL        AX, R11
	VPSRLQ     $52, Y0, Y1
	VPOR       logq<>+64(SB), Y1, Y1
	VSUBPD     logq<>+96(SB), Y1, Y1
	VMULPD     logq<>+128(SB), Y1, Y1 // Ln2·k
	TAB(AX, 0)
	TAB(BX, 8)
	TAB(CX, 16)
	TAB(DX, 24)
	VMOVUPD     (DI)(AX*1), X2
	VMOVUPD     (DI)(BX*1), X3
	VINSERTF128 $1, (DI)(CX*1), Y2, Y2
	VINSERTF128 $1, (DI)(DX*1), Y3, Y3
	VUNPCKLPD   Y3, Y2, Y4 // 1/c
	VUNPCKHPD   Y3, Y2, Y2 // ln(c)
	VANDPD      logq<>+32(SB), Y0, Y3
	VORPD       logq<>+0(SB), Y3, Y3 // m
	VMULPD      Y4, Y3, Y3
	VSUBPD      logq<>+0(SB), Y3, Y3 // r = m·(1/c) − 1
	VADDPD      Y2, Y1, Y1           // Ln2·k + ln(c)
	VMULPD      logq<>+160(SB), Y3, Y4
	VMOVUPD     logq<>+192(SB), Y2
	VSUBPD      Y4, Y2, Y4
	VMULPD      Y4, Y3, Y4
	VMOVUPD     logq<>+224(SB), Y2
	VSUBPD      Y4, Y2, Y4
	VMULPD      Y4, Y3, Y4
	VMOVUPD     logq<>+256(SB), Y2
	VSUBPD      Y4, Y2, Y4 // q
	VMULPD      Y3, Y3, Y2 // r²
	VMULPD      Y4, Y2, Y2
	VSUBPD      Y2, Y3, Y3
	VADDPD      Y3, Y1, Y1
	VMOVUPD     Y1, (R8)(R13*1)
	ADDQ        $32, R13
	CMPQ        R13, R12
	JLT         logs
	VZEROUPPER
	TESTQ R11, R11
	JNZ   bail
	TESTQ R10, R10
	SETNE signed+192(FP)

	// The chains. Element t of row 0 is at byte offset 8t (R13), and
	// step t does it (t < w) and then element t − k of each row k ≥ 1
	// there is, at 8t + k(8w − 8) (R14, R15, DX). lim1…lim3 are 8w for
	// the rows there are and 0 for the others; the last step, end, is
	// row rows−1's last element.
	MOVQ   up_len+80(FP), CX
	MOVQ   x_len+8(FP), AX
	XORQ   DX, DX
	DIVQ   CX // rows
	SHLQ   $3, CX
	MOVQ   CX, R12 // 8w
	XORQ   DX, DX
	CMPQ   AX, $2
	CMOVQGE CX, DX
	MOVQ   DX, lim1-8(SP)
	XORQ   DX, DX
	CMPQ   AX, $3
	CMOVQGE CX, DX
	MOVQ   DX, lim2-16(SP)
	XORQ   DX, DX
	CMPQ   AX, $4
	CMOVQGE CX, DX
	MOVQ   DX, lim3-24(SP)
	LEAQ   -16(R12)(AX*8), AX
	MOVQ   AX, end-32(SP)
	MOVQ   codes_base+48(FP), DI
	MOVQ   up_base+72(FP), R9
	MOVQ   back_base+96(FP), R10
	MOVQ   ub_base+120(FP), R11
	VMOVSD inv+144(FP), X7
	VMOVSD limit+168(FP), X8
	VXORPD X9, X9, X9
	VSUBSD X8, X9, X9 // −limit
	VMOVSD logq<>+352(SB), X10
	VMOVSD twoEB+152(FP), X11
	VMOVSD eb+160(FP), X12
	VXORPD X13, X13, X13
	VSUBSD X12, X13, X13 // −eb
	VMOVQ  X10, SI
	SUBQ   half+176(FP), SI // bits(magic) − half
	XORQ   BX, BX
	XORQ   R13, R13
	LEAQ   -8(R12), R14
	LEAQ   (R14)(R14*1), R15
	LEAQ   (R15)(R14*1), DX

step:
	CMPQ   R13, R12
	JAE    row1
	VMOVSD (R8)(R13*1), X0
	TESTQ  R13, R13
	JNZ    pred0
	VMOVSD (R9), X1 // (up[0] + back[0]) − ub[0]
	VADDSD (R10), X1, X1
	VSUBSD (R11), X1, X1
	JMP    quant0
pred0:
	VMOVSD (R9)(R13*1), X1
	VSUBSD -8(R9)(R13*1), X1, X1
	VMOVSD (R10)(R13*1), X2
	VSUBSD -8(R10)(R13*1), X2, X2
	VADDSD X2, X1, X1
	VMOVSD (R11)(R13*1), X2
	VSUBSD -8(R11)(R13*1), X2, X2
	VSUBSD X2, X1, X1
	VADDSD X5, X1, X1
quant0:
	QUANT(R13, X5, unpred0)

row1:
	ROW(8, lim1-8(SP), R14, X6, R13, quant1, pred1, unpred1, row2)
row2:
	ROW(16, lim2-16(SP), R15, X14, R14, quant2, pred2, unpred2, row3)
row3:
	ROW(24, lim3-24(SP), DX, X15, R15, quant3, pred3, unpred3, next)

next:
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, R15
	ADDQ $8, DX
	CMPQ R13, end-32(SP)
	JLE  step
	MOVQ BX, unpred+184(FP)
	MOVB $1, ok+193(FP)
	RET

bail:
	MOVB $0, ok+193(FP)
	RET

unpred0:
	MOVQ    $0, (DI)(R13*1)
	VMOVAPD X0, X5
	INCQ    BX
	JMP     row1

unpred1:
	MOVQ    $0, (DI)(R14*1)
	VMOVAPD X0, X6
	INCQ    BX
	JMP     row2

unpred2:
	MOVQ    $0, (DI)(R15*1)
	VMOVAPD X0, X14
	INCQ    BX
	JMP     row3

unpred3:
	MOVQ    $0, (DI)(DX*1)
	VMOVAPD X0, X15
	INCQ    BX
	JMP     next
