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

// ROUND8 applies the round key at off(AX) to the eight lanes X0-X7.
#define ROUND8(off) \
	MOVOU off(AX), X8; \
	AESENC X8, X0; \
	AESENC X8, X1; \
	AESENC X8, X2; \
	AESENC X8, X3; \
	AESENC X8, X4; \
	AESENC X8, X5; \
	AESENC X8, X6; \
	AESENC X8, X7

// AES8 encrypts X0-X7 in place under the round keys at AX, with round
// key 0 in X9 and round key 10 in X10.
#define AES8 \
	PXOR X9, X0; \
	PXOR X9, X1; \
	PXOR X9, X2; \
	PXOR X9, X3; \
	PXOR X9, X4; \
	PXOR X9, X5; \
	PXOR X9, X6; \
	PXOR X9, X7; \
	MIDDLE(ROUND8); \
	AESENCLAST X10, X0; \
	AESENCLAST X10, X1; \
	AESENCLAST X10, X2; \
	AESENCLAST X10, X3; \
	AESENCLAST X10, X4; \
	AESENCLAST X10, X5; \
	AESENCLAST X10, X6; \
	AESENCLAST X10, X7

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
	CMPQ CX, $4
	JGT eight
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

eight:
	LOAD(0, X0)
	LOAD(16, X1)
	LOAD(32, X2)
	LOAD(48, X3)
	LOAD(64, X4)
	LOAD(80, X5)
	LOAD(96, X6)
	LOAD(112, X7)
	AES8
	MOVOU X0, 0(BX)
	MOVOU X1, 16(BX)
	MOVOU X2, 32(BX)
	MOVOU X3, 48(BX)
	MOVOU X4, 64(BX)
	MOVOU X5, 80(BX)
	MOVOU X6, 96(BX)
	MOVOU X7, 112(BX)
	RET

// The pad kernel runs the groups of a pad run (Deriver.XORPadsRun): eight
// lanes per group, lane l being candidate lane[l].mask/w of OT first +
// lane[l].ot. BX points at the padRun, SI at the group's rows, DI at the
// masks, DX at the group's pads and R8 holds the group's first index.
// Each absorb keeps its lanes' inputs x in the frame for the feed-forward
// pi(x) XOR x.

// SAVE stores lane l's input x, and FEED XORs it into the lane's output.
#define SAVE(l, X) MOVOU X, (l*16)(SP)
#define FEED(l, X) \
	MOVOU (l*16)(SP), X12; \
	PXOR X12, X

#define FEED8 \
	FEED(0, X0); \
	FEED(1, X1); \
	FEED(2, X2); \
	FEED(3, X3); \
	FEED(4, X4); \
	FEED(5, X5); \
	FEED(6, X6); \
	FEED(7, X7)

// INDEX sets lane l to g_blk XOR (first + lane[l].ot, 0), g_blk in X11.
#define INDEX(l, X) \
	MOVQ R8, R10; \
	ADDQ (padLane+l*24)(BX), R10; \
	MOVQ R10, X; \
	PXOR X11, X; \
	SAVE(l, X)

// DATA XORs data block off of lane l's row and mask into the lane, with
// LD the load for the block: MOVOU for 16 bytes, MOVQ for a last block of
// 8 (zero-extended).
#define DATA(LD, off, l, X) \
	MOVQ (padLane+8+l*24)(BX), R10; \
	LD off(SI)(R10*1), X12; \
	PXOR X12, X; \
	MOVQ (padLane+16+l*24)(BX), R11; \
	LD off(DI)(R11*1), X13; \
	PXOR X13, X; \
	SAVE(l, X)

#define DATA8(LD, off) \
	DATA(LD, off, 0, X0); \
	DATA(LD, off, 1, X1); \
	DATA(LD, off, 2, X2); \
	DATA(LD, off, 3, X3); \
	DATA(LD, off, 4, X4); \
	DATA(LD, off, 5, X5); \
	DATA(LD, off, 6, X6); \
	DATA(LD, off, 7, X7)

// TWEAK sets lane l to its chaining value XOR tau_i, tau_i in X13, and
// CHAIN XORs the chaining value into the lane's output and stores it for
// the lane loop.
#define TWEAK(l, X) \
	MOVOU (128+l*16)(SP), X; \
	PXOR X13, X

#define CHAIN(l, X) \
	MOVOU (128+l*16)(SP), X12; \
	PXOR X12, X; \
	MOVOU X, (l*16)(SP)

// The padRun fields the kernel reads, by byte offset.
#define padG 0
#define padGroups 16
#define padBlocks 24
#define padN 32
#define padRowStep 40
#define padDstStep 48
#define padOTStep 56
#define padUsedBytes 64
#define padLane 72

// func padKernel(rk *[11 * 16]byte, r *padRun, rows, masks, dst *byte, first uint64)
TEXT ·padKernel(SB), NOSPLIT, $256-48
	MOVQ rk+0(FP), AX
	MOVQ r+8(FP), BX
	MOVQ rows+16(FP), SI
	MOVQ masks+24(FP), DI
	MOVQ dst+32(FP), DX
	MOVQ first+40(FP), R8
	MOVQ padGroups(BX), R9
	MOVQ padN(BX), CX
	MOVOU (AX), X9
	MOVOU 160(AX), X10
	MOVQ padG(BX), X11
	PINSRQ $1, (padG+8)(BX), X11

group:
	INDEX(0, X0)
	INDEX(1, X1)
	INDEX(2, X2)
	INDEX(3, X3)
	INDEX(4, X4)
	INDEX(5, X5)
	INDEX(6, X6)
	INDEX(7, X7)
	AES8
	FEED8
	DATA8(MOVOU, 0)
	AES8
	FEED8
	CMPQ padBlocks(BX), $2
	JNE out
	DATA8(MOVQ, 16)
	AES8
	FEED8

out:
	CMPQ CX, $16
	JGT long
	// A short pad: lane l's pad is the first n bytes of its chaining
	// value, XORed into dst at l*n: 16 bytes as two words, fewer as 8, 4,
	// 2 and 1.
	MOVOU X0, 0(SP)
	MOVOU X1, 16(SP)
	MOVOU X2, 32(SP)
	MOVOU X3, 48(SP)
	MOVOU X4, 64(SP)
	MOVOU X5, 80(SP)
	MOVOU X6, 96(SP)
	MOVOU X7, 112(SP)
	XORQ R12, R12
	MOVQ DX, R13

lane:
	MOVQ R13, R11
	MOVQ 0(SP)(R12*1), R10
	TESTQ $16, CX
	JZ part8
	XORQ R10, (R11)
	MOVQ 8(SP)(R12*1), R10
	XORQ R10, 8(R11)
	JMP next

part8:
	TESTQ $8, CX
	JZ part4
	XORQ R10, (R11)
	MOVQ 8(SP)(R12*1), R10
	ADDQ $8, R11

part4:
	TESTQ $4, CX
	JZ part2
	XORL R10, (R11)
	SHRQ $32, R10
	ADDQ $4, R11

part2:
	TESTQ $2, CX
	JZ part1
	XORW R10, (R11)
	SHRQ $16, R10
	ADDQ $2, R11

part1:
	TESTQ $1, CX
	JZ next
	XORB R10, (R11)

next:
	ADDQ CX, R13
	ADDQ $16, R12
	CMPQ R12, padUsedBytes(BX)
	JNE lane

advance:
	ADDQ padRowStep(BX), SI
	ADDQ padDstStep(BX), DX
	ADDQ padOTStep(BX), R8
	DECQ R9
	JNZ group
	RET

	// A long pad, n a multiple of 16: block i of lane l's pad is
	// pi(c XOR tau_i) XOR c for its chaining value c, tau_i = (i, 0xEE<<56),
	// XORed into dst at l*n + 16i. The chaining values wait in the frame at
	// 128 + 16l, each block's eight outputs at 16l on their way to the used
	// lanes' dst. R12 is 16i, R11 the block's dst in lane 0, then in lane l.
long:
	MOVOU X0, 128(SP)
	MOVOU X1, 144(SP)
	MOVOU X2, 160(SP)
	MOVOU X3, 176(SP)
	MOVOU X4, 192(SP)
	MOVOU X5, 208(SP)
	MOVOU X6, 224(SP)
	MOVOU X7, 240(SP)
	MOVQ $0xEE00000000000000, R10
	MOVQ R10, X14
	PSLLDQ $8, X14
	XORQ R12, R12

block:
	MOVQ R12, R10
	SHRQ $4, R10
	MOVQ R10, X13
	PXOR X14, X13
	TWEAK(0, X0)
	TWEAK(1, X1)
	TWEAK(2, X2)
	TWEAK(3, X3)
	TWEAK(4, X4)
	TWEAK(5, X5)
	TWEAK(6, X6)
	TWEAK(7, X7)
	AES8
	CHAIN(0, X0)
	CHAIN(1, X1)
	CHAIN(2, X2)
	CHAIN(3, X3)
	CHAIN(4, X4)
	CHAIN(5, X5)
	CHAIN(6, X6)
	CHAIN(7, X7)
	LEAQ (DX)(R12*1), R11
	XORQ R10, R10

longLane:
	MOVOU 0(SP)(R10*1), X12
	MOVOU (R11), X13
	PXOR X13, X12
	MOVOU X12, (R11)
	ADDQ CX, R11
	ADDQ $16, R10
	CMPQ R10, padUsedBytes(BX)
	JNE longLane

	ADDQ $16, R12
	CMPQ R12, CX
	JNE block
	JMP advance
