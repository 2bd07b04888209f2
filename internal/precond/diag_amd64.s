// The four-line kernels of diag3.solve (diag.go).
//
// A sweep row is a chain of one multiply and one subtract through the
// row before it, so one grid line runs at that chain's latency. Four
// lines of a plane are four chains, except that line l reads line l−1
// at the same x as its near neighbour: lane l runs one row behind lane
// l−1, so the value it needs is the one lane l−1 finished in the step
// before, still in that lane's register. A call takes the four lines
// whole: a prologue of partial steps starts lanes 1…3 one by one and an
// epilogue finishes them. A row's coefficients are read from the table
// row its lane's pointer is at. On a line's head (x < k) the pointers
// step through the table with the rows; on its tail they stand still,
// on the row every tail row shares (the table's x extent carries three
// copies of it, so that the four staggered lanes can step across it),
// and a row's only streams are r or dst, its far neighbour, and the
// store. A lane past the first starts its line from +0 for the row
// before (diag3.solve says why).
//
// Every row is diag3.fwd's or diag3.bwd's, operation for operation and
// in its order, scalar and never fused, so the bits are the row loops'
// but for those line starts. The only liberty is a commuted operand of
// a multiplication.
//
// Registers: lane l's row in DI, R8, R9, R10 (lane l is l rows behind
// lane 0 and nx·l rows on, so the four advance together, idle lanes
// too) and its table row in SI, R11, R12, R13; X0…X3 the value each
// lane wrote last; BX the far offset, AX lane 0's near offset, DX the
// steps left in the phase, CX the table stride of the phase. Within a
// step the lanes go 3, 2, 1, 0, so that lane l reads lane l−1's value
// before lane l−1 replaces it. A table row is sub, near, far, dinv: 32
// bytes.
//
// Operand order (Go syntax): VSUBSD a, b, c is c = b − a.

//go:build !amd64.v3

#include "textflag.h"

// FWD(D, T, NB, P): s = r − far·dst[i−s2] − near·NB − sub·P; P and
// dst[i] ← s. R14 is r − dst in elements.
#define FWD(D, T, NB, P) \
	VMOVSD (D)(R14*8), X12; \
	VMOVSD (D)(BX*8), X13; \
	VMULSD 16(T), X13, X13; \
	VSUBSD X13, X12, X12; \
	VMULSD 8(T), NB, X13; \
	VSUBSD X13, X12, X12; \
	VMULSD (T), P, X13; \
	VSUBSD X13, X12, P; \
	VMOVSD P, (D)

#define FWD0 VMOVSD (DI)(AX*8), X14; FWD(DI, SI, X14, X0)
#define FWD1 FWD(R8, R11, X0, X1)
#define FWD2 FWD(R9, R12, X1, X2)
#define FWD3 FWD(R10, R13, X2, X3)

// NEXT(S) moves the lanes one row on (S = 8 or −8) and their table rows
// by CX.
#define NEXT(S) \
	ADDQ $S, DI; \
	ADDQ $S, R8; \
	ADDQ $S, R9; \
	ADDQ $S, R10; \
	ADDQ CX, SI; \
	ADDQ CX, R11; \
	ADDQ CX, R12; \
	ADDQ CX, R13

// func fwdLanes(d, r *float64, t *[4]*coefs, nx, s2, head, tail int)
//
// Lane l starts at row −l of its line, d + l·(nx−1) (r likewise), and
// at table row −l of t[l]. The prologue and the next head full steps
// move the table rows with the lanes, the tail full steps and the
// epilogue do not.
TEXT ·fwdLanes(SB), NOSPLIT, $0-56
	MOVQ   d+0(FP), DI
	MOVQ   r+8(FP), R14
	MOVQ   t+16(FP), CX
	MOVQ   (CX), SI
	MOVQ   8(CX), R11
	MOVQ   16(CX), R12
	MOVQ   24(CX), R13
	MOVQ   nx+24(FP), AX
	MOVQ   s2+32(FP), BX
	SUBQ   DI, R14
	SARQ   $3, R14
	LEAQ   -8(DI)(AX*8), R8
	LEAQ   -8(R8)(AX*8), R9
	LEAQ   -8(R9)(AX*8), R10
	SUBQ   $32, R11
	SUBQ   $64, R12
	SUBQ   $96, R13
	NEGQ   AX
	NEGQ   BX
	VMOVSD -8(DI), X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	MOVQ   $32, CX
	FWD0
	NEXT(8)
	FWD1
	FWD0
	NEXT(8)
	FWD2
	FWD1
	FWD0
	NEXT(8)
	MOVQ   head+40(FP), DX

fwdloop:
	TESTQ DX, DX
	JZ    fwdphase
	FWD3
	FWD2
	FWD1
	FWD0
	NEXT(8)
	DECQ  DX
	JMP   fwdloop

fwdphase:
	TESTQ CX, CX
	JZ    fwdlast
	XORL  CX, CX
	MOVQ  tail+48(FP), DX
	JMP   fwdloop

fwdlast:
	FWD3
	FWD2
	FWD1
	NEXT(8)
	FWD3
	FWD2
	NEXT(8)
	FWD3
	RET

// BWD(D, T, NC, NB, SC, P): s = dst[i]·dinv − NC·NB − far·dst[i+s2] −
// SC·P; P and dst[i] ← s. NC is the near coefficient of row i+nx, SC
// that of row i+1's sub (X15 = +0 on a line's last row), and R14 the
// table offset from a lane's line to its far line.
#define BWD(D, T, NC, NB, SC, P) \
	VMOVSD (D), X12; \
	VMULSD 24(T), X12, X12; \
	VMULSD NC, NB, X13; \
	VSUBSD X13, X12, X12; \
	VMOVSD (D)(BX*8), X13; \
	VMULSD 16(T)(R14*1), X13, X13; \
	VSUBSD X13, X12, X12; \
	VMULSD SC, P, X13; \
	VSUBSD X13, X12, P; \
	VMOVSD P, (D)

#define BWD0(SC) VMOVSD (DI)(AX*8), X14; BWD(DI, SI, 8(SI)(R15*1), X14, SC, X0)
#define BWD1(SC) BWD(R8, R11, 40(SI), X0, SC, X1)
#define BWD2(SC) BWD(R9, R12, 40(R11), X1, SC, X2)
#define BWD3(SC) BWD(R10, R13, 40(R12), X2, SC, X3)

// func bwdLanes(d *float64, t *[6]*coefs, nx, s2, tail, head int)
//
// Lanes step down: lane l starts at row nx−1+l of its line, d −
// l·(nx−1). t[l] is lane l's table row where its head starts, k−1+l, and
// t[4], t[5] the same row of lane 0's near and far lines. The prologue
// and the next tail full steps hold the table rows still (lane 0's one
// row on, at k), the head full steps and the epilogue move them with the
// lanes. Lane l > 0 takes its near coefficient from lane l−1's table
// row (its line, one row ahead), lane 0 from R15 bytes past its own;
// every lane's far line is R14 bytes past its own line.
TEXT ·bwdLanes(SB), NOSPLIT, $0-48
	MOVQ   d+0(FP), DI
	MOVQ   t+8(FP), CX
	MOVQ   (CX), SI
	MOVQ   8(CX), R11
	MOVQ   16(CX), R12
	MOVQ   24(CX), R13
	MOVQ   32(CX), R15
	MOVQ   40(CX), R14
	SUBQ   SI, R15
	SUBQ   SI, R14
	MOVQ   nx+16(FP), AX
	MOVQ   s2+24(FP), BX
	NEGQ   AX
	LEAQ   8(DI)(AX*8), R8
	LEAQ   8(R8)(AX*8), R9
	LEAQ   8(R9)(AX*8), R10
	NEGQ   AX
	ADDQ   $32, SI
	VMOVSD 8(DI), X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X15, X15, X15
	XORL   CX, CX
	BWD0(X15)
	NEXT(-8)
	BWD1(X15)
	BWD0(32(SI))
	NEXT(-8)
	BWD2(X15)
	BWD1(32(R11))
	BWD0(32(SI))
	NEXT(-8)
	BWD3(X15)
	BWD2(32(R12))
	BWD1(32(R11))
	BWD0(32(SI))
	NEXT(-8)
	MOVQ   tail+32(FP), DX

bwdloop:
	TESTQ DX, DX
	JZ    bwdphase
	BWD3(32(R13))
	BWD2(32(R12))
	BWD1(32(R11))
	BWD0(32(SI))
	NEXT(-8)
	DECQ  DX
	JMP   bwdloop

bwdphase:
	TESTQ CX, CX
	JNZ   bwdlast
	MOVQ  $-32, CX
	SUBQ  $32, SI
	MOVQ  head+40(FP), DX
	JMP   bwdloop

bwdlast:
	BWD3(32(R13))
	BWD2(32(R12))
	BWD1(32(R11))
	NEXT(-8)
	BWD3(32(R13))
	BWD2(32(R12))
	NEXT(-8)
	BWD3(32(R13))
	RET
