// rebuild (sz.go) over a grid row, four lanes at a time.
//
// An element of a grid row is (prev + S) + Q, where S, what the rows
// behind it add, is (up[i] − up[i−1]) + (back[i] − back[i−1]) −
// (ub[i] − ub[i−1]) and Q = 2·eb·(code − half). Neither depends on the
// row itself, so the kernel computes both four lanes at a time; only
// the two additions through prev go one element after another. Every
// element is rebuild's, operation for operation and in its order, with
// nothing fused (no FMA), so the reconstruction comes out bit for bit.
// A group of four with a code 0 (an unpredictable value, taken from
// stored) goes one element at a time.
//
// The rows behind the one being rebuilt were written one element at a
// time a few hundred cycles before, some still in the store buffer: up
// is read eight bytes at a time, so that each load is forwarded from
// one store. Only VEX encodings, and VZEROUPPER on the way out: a
// legacy SSE instruction with the upper halves dirty costs hundreds of
// cycles a call.

//go:build !amd64.v3

#include "textflag.h"

// func gridRunAVX2(out, up, back, ub []float64, codes []int32, stored []byte, twoEB float64, half, j int) (done int, rest []byte)
TEXT ·gridRunAVX2(SB), NOSPLIT, $0-200
	MOVQ         j+160(FP), AX
	MOVQ         out_base+0(FP), DI
	LEAQ         (DI)(AX*8), DI
	MOVQ         up_base+24(FP), SI
	LEAQ         (SI)(AX*8), SI
	MOVQ         back_base+48(FP), R8
	LEAQ         (R8)(AX*8), R8
	MOVQ         ub_base+72(FP), R9
	LEAQ         (R9)(AX*8), R9
	MOVQ         codes_base+96(FP), R10
	MOVQ         codes_len+104(FP), CX
	MOVQ         stored_base+120(FP), R12
	MOVQ         stored_len+128(FP), R13
	VBROADCASTSD twoEB+144(FP), Y13
	MOVQ         half+152(FP), DX
	VMOVQ        DX, X14
	VPBROADCASTD X14, X14
	VPXOR        X12, X12, X12
	XORQ         R11, R11
	LEAQ         -4(CX), BX         // the last start of four whole lanes
	// prev, pu, pb, pub: zeros before the row, else the element before j.
	VXORPD       X5, X5, X5
	VXORPD       X8, X8, X8
	VXORPD       X9, X9, X9
	VXORPD       X10, X10, X10
	TESTQ        AX, AX
	JZ           one                // the row's first element: one alone
	VMOVSD       -8(DI), X5
	VMOVSD       -8(SI), X8
	VMOVSD       -8(R8), X9
	VMOVSD       -8(R9), X10

quad:
	CMPQ         R11, BX
	JG           one
	VMOVDQU      (R10)(R11*4), X3
	VPCMPEQD     X12, X3, X4
	VPTEST       X4, X4
	JNZ          one               // a code 0 among the four: one at a time
	VMOVSD       (SI)(R11*8), X0
	VMOVHPD      8(SI)(R11*8), X0, X0
	VMOVSD       16(SI)(R11*8), X6
	VMOVHPD      24(SI)(R11*8), X6, X6
	VINSERTF128  $1, X6, Y0, Y0    // up[i:i+4]
	VMOVSD       -8(SI)(R11*8), X7
	VMOVHPD      (SI)(R11*8), X7, X7
	VMOVSD       8(SI)(R11*8), X6
	VMOVHPD      16(SI)(R11*8), X6, X6
	VINSERTF128  $1, X6, Y7, Y7    // up[i−1:i+3]
	VSUBPD       Y7, Y0, Y0
	VMOVUPD      (R8)(R11*8), Y1
	VSUBPD       -8(R8)(R11*8), Y1, Y1
	VMOVUPD      (R9)(R11*8), Y2
	VSUBPD       -8(R9)(R11*8), Y2, Y2
	VADDPD       Y1, Y0, Y0
	VSUBPD       Y2, Y0, Y0        // S
	VPSUBD       X14, X3, X3
	VCVTDQ2PD    X3, Y3
	VMULPD       Y13, Y3, Y3       // Q
	VADDSD       X0, X5, X5
	VADDSD       X3, X5, X5
	VMOVSD       X5, (DI)(R11*8)
	VPERMILPD    $1, X0, X6
	VPERMILPD    $1, X3, X7
	VADDSD       X6, X5, X5
	VADDSD       X7, X5, X5
	VMOVSD       X5, 8(DI)(R11*8)
	VEXTRACTF128 $1, Y0, X0
	VEXTRACTF128 $1, Y3, X3
	VADDSD       X0, X5, X5
	VADDSD       X3, X5, X5
	VMOVSD       X5, 16(DI)(R11*8)
	VPERMILPD    $1, X0, X6
	VPERMILPD    $1, X3, X7
	VADDSD       X6, X5, X5
	VADDSD       X7, X5, X5
	VMOVSD       X5, 24(DI)(R11*8)
	ADDQ         $4, R11
	VMOVSD       -8(SI)(R11*8), X8
	VMOVSD       -8(R8)(R11*8), X9
	VMOVSD       -8(R9)(R11*8), X10
	JMP          quad

one:
	CMPQ         R11, CX
	JGE          done
	VMOVSD       (SI)(R11*8), X0
	VSUBSD       X8, X0, X6
	VMOVAPD      X0, X8
	VMOVSD       (R8)(R11*8), X1
	VSUBSD       X9, X1, X7
	VMOVAPD      X1, X9
	VADDSD       X7, X6, X6
	VMOVSD       (R9)(R11*8), X2
	VSUBSD       X10, X2, X7
	VMOVAPD      X2, X10
	VSUBSD       X7, X6, X6        // S
	MOVLQSX      (R10)(R11*4), AX
	MOVQ         AX, R14
	SUBQ         DX, AX
	VCVTSI2SDQ   AX, X3, X3
	VMULSD       X13, X3, X3       // Q
	VADDSD       X6, X5, X5
	VADDSD       X3, X5, X5
	TESTQ        R14, R14
	JNZ          put
	CMPQ         R13, $8           // a code 0: the next stored value
	JLT          done
	VMOVSD       (R12), X5
	ADDQ         $8, R12
	SUBQ         $8, R13
put:
	VMOVSD       X5, (DI)(R11*8)
	INCQ         R11
	JMP          quad

done:
	MOVQ         R11, done+168(FP)
	MOVQ         R12, rest_base+176(FP)
	MOVQ         R13, rest_len+184(FP)
	MOVQ         R13, rest_cap+192(FP)
	VZEROUPPER
	RET
