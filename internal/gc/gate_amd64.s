#include "textflag.h"

// The AND-gate kernels: one gate of the circuit body in a group of
// windows, with every window's hashes in one 8-lane AES pass. Labels are
// 16 bytes, the wire struct's two little-endian words; a tweak is XORed
// into a label's low word. The frame holds the eight hash inputs x for
// the feed-forward pi(x) XOR x. Permute bits select through masks, never
// through a branch.

// LOAD reads the label at off(R) as two 8-byte loads: Go writes labels as
// two words, and a 16-byte load of two 8-byte stores would stall on store
// forwarding.
#define LOAD(off, R, X) \
	MOVQ off(R), X; \
	PINSRQ $1, off+8(R), X

// MASK sets M to all ones if the permute bit of label X is 1, else zero.
#define MASK(X, M) \
	PSHUFD $0, X, M; \
	PSLLL $31, M; \
	PSRAL $31, M

// TWEAK puts [R, 0] in X1 and [R+1, 0] in X2, the two tweaks of a gate.
#define TWEAK(R, X1, X2) \
	MOVQ R, X1; \
	LEAQ 1(R), R11; \
	MOVQ R11, X2

// ROUND applies the round key at off(AX) to the eight lanes X0-X7.
#define ROUND(off) \
	MOVOU off(AX), X8; \
	AESENC X8, X0; \
	AESENC X8, X1; \
	AESENC X8, X2; \
	AESENC X8, X3; \
	AESENC X8, X4; \
	AESENC X8, X5; \
	AESENC X8, X6; \
	AESENC X8, X7

// HASH8 replaces each lane x in X0-X7 by pi(x) XOR x under the round keys
// at AX, keeping the inputs at 0-112(SP).
#define HASH8 \
	MOVOU X0, 0(SP); \
	MOVOU X1, 16(SP); \
	MOVOU X2, 32(SP); \
	MOVOU X3, 48(SP); \
	MOVOU X4, 64(SP); \
	MOVOU X5, 80(SP); \
	MOVOU X6, 96(SP); \
	MOVOU X7, 112(SP); \
	MOVOU (AX), X8; \
	PXOR X8, X0; \
	PXOR X8, X1; \
	PXOR X8, X2; \
	PXOR X8, X3; \
	PXOR X8, X4; \
	PXOR X8, X5; \
	PXOR X8, X6; \
	PXOR X8, X7; \
	ROUND(16); \
	ROUND(32); \
	ROUND(48); \
	ROUND(64); \
	ROUND(80); \
	ROUND(96); \
	ROUND(112); \
	ROUND(128); \
	ROUND(144); \
	MOVOU 160(AX), X8; \
	AESENCLAST X8, X0; \
	AESENCLAST X8, X1; \
	AESENCLAST X8, X2; \
	AESENCLAST X8, X3; \
	AESENCLAST X8, X4; \
	AESENCLAST X8, X5; \
	AESENCLAST X8, X6; \
	AESENCLAST X8, X7; \
	MOVOU 0(SP), X8; \
	PXOR X8, X0; \
	MOVOU 16(SP), X8; \
	PXOR X8, X1; \
	MOVOU 32(SP), X8; \
	PXOR X8, X2; \
	MOVOU 48(SP), X8; \
	PXOR X8, X3; \
	MOVOU 64(SP), X8; \
	PXOR X8, X4; \
	MOVOU 80(SP), X8; \
	PXOR X8, X5; \
	MOVOU 96(SP), X8; \
	PXOR X8, X6; \
	MOVOU 112(SP), X8; \
	PXOR X8, X7

// GARBLE4 loads the garbler's four lanes of the window at off: H(a0),
// H(a0^R) under tweak X12 and H(b0), H(b0^R) under tweak X13, R in X11.
#define GARBLE4(off, A0, A1, B0, B1) \
	LOAD(off, SI, A0); \
	PXOR X12, A0; \
	MOVO A0, A1; \
	PXOR X11, A1; \
	LOAD(off, DI, B0); \
	PXOR X13, B0; \
	MOVO B0, B1; \
	PXOR X11, B1

// HALFGATES finishes the garbler's window at off from its hashes: the
// generator half-gate tg = H(a0)^H(a1)^(R if pb) and wg = H(a0)^(tg if pa),
// the evaluator half-gate te = H(b0)^H(b1)^a0 and we = H(b0)^(te^a0 if
// pb); out = wg^we. The rows go to 0(R10) and 16(R10).
#define HALFGATES(off, HA0, HA1, HB0, HB1) \
	LOAD(off, SI, X12); \
	LOAD(off, DI, X13); \
	MASK(X13, X14); \
	PXOR HA0, HA1; \
	MOVO X11, X15; \
	PAND X14, X15; \
	PXOR X15, HA1; \
	MASK(X12, X15); \
	PAND HA1, X15; \
	PXOR X15, HA0; \
	PXOR HB0, HB1; \
	MOVO HB1, X15; \
	PAND X14, X15; \
	PXOR X15, HB0; \
	PXOR X12, HB1; \
	PXOR HB0, HA0; \
	MOVOU HA0, off(DX); \
	MOVOU HA1, 0(R10); \
	MOVOU HB1, 16(R10)

// func garblePairKernel(rk *[176]byte, a, b, o *[2]wire, r *wire, t, dt uint64, rows *byte)
TEXT ·garblePairKernel(SB), NOSPLIT, $128-64
	MOVQ rk+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ o+24(FP), DX
	MOVQ r+32(FP), BX
	MOVQ t+40(FP), R8
	MOVQ dt+48(FP), R9
	MOVQ rows+56(FP), R10
	LOAD(0, BX, X11)
	TWEAK(R8, X12, X13)
	GARBLE4(0, X0, X1, X2, X3)
	ADDQ R9, R8
	TWEAK(R8, X12, X13)
	GARBLE4(16, X4, X5, X6, X7)
	HASH8
	HALFGATES(0, X0, X1, X2, X3)
	SHLQ $4, R9
	ADDQ R9, R10
	HALFGATES(16, X4, X5, X6, X7)
	RET

// EVAL2 loads the evaluator's two lanes of the window at off: H(a) under
// tweak X12 and H(b) under tweak X13.
#define EVAL2(off, A, B) \
	LOAD(off, SI, A); \
	PXOR X12, A; \
	LOAD(off, DI, B); \
	PXOR X13, B

// OPEN finishes the evaluator's window at off from its hashes and its
// rows at R10: wg = H(a)^(tg if pa), we = H(b)^(te^a if pb), out = wg^we.
#define OPEN(off, HA, HB) \
	LOAD(off, SI, X12); \
	LOAD(off, DI, X13); \
	MASK(X12, X14); \
	MOVOU 0(R10), X15; \
	PAND X14, X15; \
	PXOR X15, HA; \
	MASK(X13, X14); \
	MOVOU 16(R10), X15; \
	PXOR X12, X15; \
	PAND X14, X15; \
	PXOR X15, HB; \
	PXOR HB, HA; \
	MOVOU HA, off(DX)

// func evalQuadKernel(rk *[176]byte, a, b, o *[4]wire, t, dt uint64, rows *byte)
TEXT ·evalQuadKernel(SB), NOSPLIT, $128-56
	MOVQ rk+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ o+24(FP), DX
	MOVQ t+32(FP), R8
	MOVQ dt+40(FP), R9
	MOVQ rows+48(FP), R10
	TWEAK(R8, X12, X13)
	EVAL2(0, X0, X1)
	ADDQ R9, R8
	TWEAK(R8, X12, X13)
	EVAL2(16, X2, X3)
	ADDQ R9, R8
	TWEAK(R8, X12, X13)
	EVAL2(32, X4, X5)
	ADDQ R9, R8
	TWEAK(R8, X12, X13)
	EVAL2(48, X6, X7)
	HASH8
	SHLQ $4, R9
	OPEN(0, X0, X1)
	ADDQ R9, R10
	OPEN(16, X2, X3)
	ADDQ R9, R10
	OPEN(32, X4, X5)
	ADDQ R9, R10
	OPEN(48, X6, X7)
	RET
