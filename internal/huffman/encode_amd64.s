// The encoder's two loops over the symbols (huffman.go): the histogram
// and the bit emission, each the Go loop's result bit for bit.
//
// The histogram of a block of quantization codes is a handful of bins
// taking most of the symbols: incremented in place, one after another,
// each increment of a hot bin waits on the store of the one before. The
// window of the 512 bins around the middle of the alphabet is counted
// in four lanes on the stack instead, every fourth symbol to a lane, so
// that four chains run side by side, and the lanes are folded into freq
// at the end. A symbol outside the window takes a branch the predictor
// misses when such symbols are common, as in codes predicted along a
// vector or under a tight bound: where more than a sixteenth of the
// last 1,024 symbols took it, the kernel stops, and the Go loop, one
// chain but no such branch, counts the rest.
//
// The emission, compiled from Go, reloads its state from the stack and
// shifts its accumulator once a symbol. Here the state stays in
// registers and two codes are joined off the accumulator's chain before
// one shift takes both.

#include "textflag.h"

// LANE(off, lane, out): the symbol s at byte offset off from element
// CX counted in its lane (lane is the lane's byte offset in lanes) at d
// = s − lo (AX) when d < w, and sent to out when not.
#define LANE(off, lane, out) \
	MOVQ off(SI)(CX*8), AX; \
	SUBQ R12, AX;           \
	CMPQ AX, R13;           \
	JAE  out;               \
	INCQ lane(R10)(AX*8)

// OUTLIER(k, back): the symbol s = lo + AX, element CX + k, outside
// the window: counted in freq, and appended to syms the first time; to
// fold, with R15 its element, when it is outside the alphabet, and to
// full when syms has no room for it and the window's bins.
#define OUTLIER(k, back) \
	INCQ outside-16392(SP); \
	ADDQ R12, AX;         \
	LEAQ k(CX), R15;      \
	CMPQ AX, R9;          \
	JAE  fold;            \
	MOVQ (R8)(AX*8), DX;  \
	INCQ DX;              \
	MOVQ DX, (R8)(AX*8);  \
	CMPQ DX, $1;          \
	JNE  back;            \
	CMPQ BX, R14;         \
	JAE  full;            \
	MOVQ AX, (DI)(BX*8);  \
	INCQ BX;              \
	JMP  back

// func countKernel(symbols []int, freq []uint64, syms []int) (nd, stop int)
//
// The window is [lo, lo+w): lo = max(len(freq)/2 − 256, 0), w =
// min(512, len(freq) − lo). It stops at a symbol outside the alphabet,
// at one syms has no room for beside the window's bins, and every
// 1,024 symbols where more than 64 of them were outside the window.
TEXT ·countKernel(SB), $16392-88
	LEAQ    lanes-16384(SP), DI
	MOVQ    $2048, CX
	XORQ    AX, AX
	REP;    STOSQ
	LEAQ    lanes-16384(SP), R10
	MOVQ    symbols_base+0(FP), SI
	MOVQ    symbols_len+8(FP), R11
	MOVQ    freq_base+24(FP), R8
	MOVQ    freq_len+32(FP), R9
	MOVQ    syms_base+48(FP), DI
	MOVQ    R9, R12
	SHRQ    $1, R12
	SUBQ    $256, R12
	CMOVQLT AX, R12 // lo
	MOVQ    R9, R13
	SUBQ    R12, R13
	MOVQ    $512, AX
	CMPQ    R13, AX
	CMOVQGT AX, R13 // w
	MOVQ    syms_cap+64(FP), R14
	SUBQ    R13, R14 // room for the symbols outside the window
	XORQ    BX, BX   // symbols appended to syms
	XORQ    CX, CX   // element
	MOVQ    $0, outside-16392(SP)

quad:
	LEAQ  4(CX), DX
	CMPQ  DX, R11
	JA    tail
	TESTQ $1023, CX
	JNZ   lanes
	MOVQ  CX, R15
	CMPQ  outside-16392(SP), $64
	JA    fold
	MOVQ  $0, outside-16392(SP)
lanes:
	LANE(0, 0, out0)
back0:
	LANE(8, 4096, out1)
back1:
	LANE(16, 8192, out2)
back2:
	LANE(24, 12288, out3)
back3:
	ADDQ $4, CX
	JMP  quad

tail:
	CMPQ CX, R11
	JGE  done
	LANE(0, 0, out4)
back4:
	INCQ CX
	JMP  tail

done:
	MOVQ R11, R15
	JMP  fold

full:
	MOVQ $0, (R8)(AX*8) // s is not counted: the caller goes on from it

	// Lane bin d to freq[lo+d], and lo+d to syms, where it is not 0.
fold:
	XORQ CX, CX
	LEAQ (R8)(R12*8), R8

bin:
	CMPQ  CX, R13
	JAE   folded
	MOVQ  (R10)(CX*8), AX
	ADDQ  4096(R10)(CX*8), AX
	ADDQ  8192(R10)(CX*8), AX
	ADDQ  12288(R10)(CX*8), AX
	TESTQ AX, AX
	JZ    nextbin
	MOVQ  AX, (R8)(CX*8)
	LEAQ  (R12)(CX*1), AX
	MOVQ  AX, (DI)(BX*8)
	INCQ  BX
nextbin:
	INCQ CX
	JMP  bin

folded:
	MOVQ BX, nd+72(FP)
	MOVQ R15, stop+80(FP)
	RET

out0:
	OUTLIER(0, back0)
out1:
	OUTLIER(1, back1)
out2:
	OUTLIER(2, back2)
out3:
	OUTLIER(3, back3)
out4:
	OUTLIER(0, back4)

// DRAIN(back): store the accumulator's 8 bytes, pending bits first,
// keep the bits of the last, incomplete byte, and go back with DX =
// nbits + CX again.
#define DRAIN(back) \
	MOVQ   CX, R13;        \
	MOVQ   R9, CX;         \
	NEGQ   CX;             \
	MOVQ   R8, DX;         \
	SHLQ   CX, DX;         \
	MOVQ   R13, CX;        \
	BSWAPQ DX;             \
	MOVQ   DX, (DI);       \
	MOVQ   R9, DX;         \
	SHRQ   $3, DX;         \
	ADDQ   DX, DI;         \
	ANDQ   $7, R9;         \
	LEAQ   (R9)(CX*1), DX; \
	JMP    back

// func emitKernel(buf []byte, symbols []int, packed []uint64) int
//
// acc (R8) holds the pending nbits (R9) in its low bits; DI is where the
// next drain stores. Codes go in two at a time: the second is joined to
// the first off the accumulator's chain, so that it shifts once for
// both. A pair longer than encMaxCodeLen goes in as its two codes.
TEXT ·emitKernel(SB), NOSPLIT, $0-80
	MOVQ buf_base+0(FP), DI
	MOVQ DI, R12
	MOVQ symbols_base+24(FP), SI
	MOVQ symbols_len+32(FP), R11
	LEAQ (SI)(R11*8), R11
	MOVQ packed_base+48(FP), R10
	XORQ R8, R8
	XORQ R9, R9

pair:
	LEAQ 8(SI), AX
	CMPQ AX, R11
	JAE  one
	MOVQ (SI), AX
	MOVQ 8(SI), DX
	MOVQ (R10)(AX*8), BX
	MOVQ (R10)(DX*8), AX
	MOVL AX, CX
	ANDL $63, CX
	SHRQ $6, AX
	MOVL BX, DX
	ANDL $63, DX
	SHRQ $6, BX
	SHLQ CX, BX
	ORQ  AX, BX
	ADDQ DX, CX
	CMPQ CX, $57
	JA   one
	LEAQ (R9)(CX*1), DX
	CMPQ DX, $64
	JA   drain2
put2:
	SHLQ CX, R8
	ORQ  BX, R8
	MOVQ DX, R9
	ADDQ $16, SI
	JMP  pair

	// The symbol at SI alone: the last one, or the first of a pair too
	// long.
one:
	CMPQ SI, R11
	JAE  last
	MOVQ (SI), AX
	MOVQ (R10)(AX*8), BX
	MOVL BX, CX
	ANDL $63, CX
	SHRQ $6, BX
	LEAQ (R9)(CX*1), DX
	CMPQ DX, $64
	JA   drain1
put1:
	SHLQ CX, R8
	ORQ  BX, R8
	MOVQ DX, R9
	ADDQ $8, SI
	JMP  pair

last:
	MOVQ   R9, CX
	NEGQ   CX
	MOVQ   R8, AX
	SHLQ   CX, AX
	BSWAPQ AX
	MOVQ   AX, (DI)
	ADDQ   $7, R9
	SHRQ   $3, R9
	ADDQ   R9, DI
	SUBQ   R12, DI
	MOVQ   DI, ret+72(FP)
	RET

drain2:
	DRAIN(put2)
drain1:
	DRAIN(put1)
