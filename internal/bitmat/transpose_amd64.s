#include "textflag.h"

// The SSE2 movemask transpose: 16 input rows x 8 column bytes per block.
// A 4-stage byte transpose leaves, in each of eight registers, one column
// byte of all 16 rows (byte p = row p); PMOVMSKB then gathers one bit
// position of those 16 bytes into the two output bytes of one output row,
// and PADDB x, x moves the next bit up to the byte's top. Bits are
// LSB-first, so the top bit of column byte c is output row 8c+7: each
// register writes its eight rows from the last down.

// COLUMN writes the eight output rows of the column byte in X, R12
// pointing at the last of them, and leaves R12 on the next column byte's.
#define BIT(X) \
	PMOVMSKB X, AX; \
	MOVW AX, (R11); \
	PADDB X, X; \
	SUBQ R8, R11

#define COLUMN(X) \
	MOVQ R12, R11; \
	BIT(X); BIT(X); BIT(X); BIT(X); \
	BIT(X); BIT(X); BIT(X); BIT(X); \
	ADDQ R13, R12

// LOADPAIR puts rows 2k and 2k+1 (R10 at row 2k) byte-interleaved in X
// and moves R10 on two rows.
#define LOADPAIR(X) \
	MOVQ (R10), X; \
	MOVQ (R10)(DX*1), X8; \
	PUNPCKLBW X8, X; \
	LEAQ (R10)(DX*2), R10

// func transpose16(out *byte, outStride int, in *byte, inStride, colBlocks int)
TEXT ·transpose16(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), R12
	MOVQ outStride+8(FP), R8
	MOVQ in+16(FP), SI
	MOVQ inStride+24(FP), DX
	MOVQ colBlocks+32(FP), CX
	LEAQ 0(R8*8), R13 // eight output rows
	ADDQ R13, R12
	SUBQ R8, R12      // output row 7

block:
	// Stage 1: rows (2k, 2k+1) interleaved by byte in Xk.
	MOVQ SI, R10
	LOADPAIR(X0)
	LOADPAIR(X1)
	LOADPAIR(X2)
	LOADPAIR(X3)
	LOADPAIR(X4)
	LOADPAIR(X5)
	LOADPAIR(X6)
	LOADPAIR(X7)

	// Stage 2, by word: column bytes 0-3 (then 4-7) of rows 4j..4j+3.
	MOVO X0, X8
	PUNPCKLWL X1, X0
	PUNPCKHWL X1, X8
	MOVO X2, X9
	PUNPCKLWL X3, X2
	PUNPCKHWL X3, X9
	MOVO X4, X10
	PUNPCKLWL X5, X4
	PUNPCKHWL X5, X10
	MOVO X6, X11
	PUNPCKLWL X7, X6
	PUNPCKHWL X7, X11

	// Stage 3, by doubleword: two column bytes of rows 0-7 (8-15).
	MOVO X0, X1
	PUNPCKLLQ X2, X0
	PUNPCKHLQ X2, X1
	MOVO X8, X3
	PUNPCKLLQ X9, X8
	PUNPCKHLQ X9, X3
	MOVO X4, X5
	PUNPCKLLQ X6, X4
	PUNPCKHLQ X6, X5
	MOVO X10, X7
	PUNPCKLLQ X11, X10
	PUNPCKHLQ X11, X7

	// Stage 4, by quadword: one column byte of all 16 rows.
	MOVO X0, X2
	PUNPCKLQDQ X4, X0
	PUNPCKHQDQ X4, X2
	MOVO X1, X6
	PUNPCKLQDQ X5, X1
	PUNPCKHQDQ X5, X6
	MOVO X8, X9
	PUNPCKLQDQ X10, X8
	PUNPCKHQDQ X10, X9
	MOVO X3, X11
	PUNPCKLQDQ X7, X3
	PUNPCKHQDQ X7, X11

	// Column bytes 0..7 are in X0, X2, X1, X6, X8, X9, X3, X11.
	COLUMN(X0)
	COLUMN(X2)
	COLUMN(X1)
	COLUMN(X6)
	COLUMN(X8)
	COLUMN(X9)
	COLUMN(X3)
	COLUMN(X11)

	ADDQ $8, SI
	DECQ CX
	JNZ  block
	RET
