#include "textflag.h"

// func cpuidECX() uint32
TEXT ·cpuidECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// One AES-128 key-schedule step: X0 holds round key i-1, AESKEYGENASSIST
// with the round constant supplies SubWord(RotWord(w3)) ^ rcon in every
// word of X1, and round key i = X0 ^ X0<<32 ^ X0<<64 ^ X0<<96 ^ that word
// is stored at off(BX).
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD $0xff, X1, X1; \
	MOVO X0, X2; \
	PSLLDQ $4, X2; \
	PXOR X2, X0; \
	PSLLDQ $4, X2; \
	PXOR X2, X0; \
	PSLLDQ $4, X2; \
	PXOR X2, X0; \
	PXOR X1, X0; \
	MOVOU X0, off(BX)

// func expandKey(key *[16]byte, rk *[11 * 16]byte)
TEXT ·expandKey(SB), NOSPLIT, $0-16
	MOVQ key+0(FP), AX
	MOVQ rk+8(FP), BX
	MOVOU (AX), X0
	MOVOU X0, (BX)
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	RET

// LOAD reads lane off(BX) as two 8-byte loads: callers write a lane as two
// words, and a 16-byte load of two 8-byte stores would stall on store
// forwarding.
#define LOAD(off, X) \
	MOVQ off(BX), X; \
	PINSRQ $1, off+8(BX), X

// ROUNDn applies the round key at off(AX) to n lanes, one key load for all.
#define ROUND1(off) \
	MOVOU off(AX), X8; \
	AESENC X8, X0

#define ROUND2(off) \
	MOVOU off(AX), X8; \
	AESENC X8, X0; \
	AESENC X8, X1

#define ROUND4(off) \
	MOVOU off(AX), X8; \
	AESENC X8, X0; \
	AESENC X8, X1; \
	AESENC X8, X2; \
	AESENC X8, X3

#define MIDDLE(ROUND) \
	ROUND(16); \
	ROUND(32); \
	ROUND(48); \
	ROUND(64); \
	ROUND(80); \
	ROUND(96); \
	ROUND(112); \
	ROUND(128); \
	ROUND(144)

// func encryptKernel(rk *[11 * 16]byte, l *Lanes, n int)
TEXT ·encryptKernel(SB), NOSPLIT, $0-24
	MOVQ rk+0(FP), AX
	MOVQ l+8(FP), BX
	MOVQ n+16(FP), CX
	MOVOU (AX), X9
	MOVOU 160(AX), X10
	CMPQ CX, $1
	JEQ one
	CMPQ CX, $2
	JEQ two

	LOAD(0, X0)
	LOAD(16, X1)
	LOAD(32, X2)
	LOAD(48, X3)
	PXOR X9, X0
	PXOR X9, X1
	PXOR X9, X2
	PXOR X9, X3
	MIDDLE(ROUND4)
	AESENCLAST X10, X0
	AESENCLAST X10, X1
	AESENCLAST X10, X2
	AESENCLAST X10, X3
	MOVOU X0, 0(BX)
	MOVOU X1, 16(BX)
	MOVOU X2, 32(BX)
	MOVOU X3, 48(BX)
	RET

two:
	LOAD(0, X0)
	LOAD(16, X1)
	PXOR X9, X0
	PXOR X9, X1
	MIDDLE(ROUND2)
	AESENCLAST X10, X0
	AESENCLAST X10, X1
	MOVOU X0, 0(BX)
	MOVOU X1, 16(BX)
	RET

one:
	LOAD(0, X0)
	PXOR X9, X0
	MIDDLE(ROUND1)
	AESENCLAST X10, X0
	MOVOU X0, 0(BX)
	RET
