#include "textflag.h"

// The span kernels of the 4-byte ring widths (l = 25..32): elements are
// uint64 words in memory and 4 little-endian bytes on the wire. Only the
// low 32 bits of a product or a difference reach the wire, so PMULULQ
// (the low words of two lanes, multiplied) and 32-bit subtraction give
// the bytes the Go loops write. Four elements make one 16-byte block; the
// len % 4 elements past the last block run one at a time.

// DECODE4 folds the four 4-byte encodings at SI into the four elements at
// DI with OP (PADDQ or PSUBQ: v = v OP decoded), masked to l bits. X6 is
// zero and X7 holds the mask in both qwords.
#define DECODE4(OP) \
	MOVOU (SI), X0; \
	MOVO X0, X1; \
	PUNPCKLLQ X6, X0; \
	PUNPCKHLQ X6, X1; \
	MOVOU (DI), X2; \
	MOVOU 16(DI), X3; \
	OP X0, X2; \
	OP X1, X3; \
	PAND X7, X2; \
	PAND X7, X3; \
	MOVOU X2, (DI); \
	MOVOU X3, 16(DI); \
	ADDQ $16, SI; \
	ADDQ $32, DI

// DECODE1 is DECODE4 for one element, with OP on general registers
// (ADDQ or SUBQ) and the mask in R13.
#define DECODE1(OP) \
	MOVL (SI), AX; \
	MOVQ (DI), BX; \
	OP AX, BX; \
	ANDQ R13, BX; \
	MOVQ BX, (DI); \
	ADDQ $4, SI; \
	ADDQ $8, DI

// SETUP loads the arguments of addDecoded32 and subDecoded32.
#define SETUP \
	MOVQ v_base+0(FP), DI; \
	MOVQ v_len+8(FP), R8; \
	MOVQ src_base+24(FP), SI; \
	MOVQ mask+48(FP), R13; \
	MOVQ R13, X7; \
	PUNPCKLQDQ X7, X7; \
	PXOR X6, X6; \
	MOVQ R8, CX; \
	SHRQ $2, CX; \
	ANDQ $3, R8

// func putMulSub32(dst, pads []byte, cs, v, s []Elem, mask uint64)
TEXT ·putMulSub32(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ pads_base+24(FP), SI
	MOVQ cs_base+48(FP), R11
	MOVQ cs_len+56(FP), R12
	MOVQ v_base+72(FP), R9
	MOVQ v_len+80(FP), R8
	MOVQ s_base+96(FP), R10
	MOVQ mask+120(FP), X7
	PSHUFD $0, X7, X7 // the mask in every dword
	TESTQ R12, R12
	JZ done

cand:
	// One span: (c·v − s) ⊕ pad, len(v) elements. dst and pads run on
	// from span to span.
	MOVQ (R11), BX
	MOVQ BX, X4
	PSHUFD $0, X4, X4 // c's low word in every dword
	MOVQ R9, AX
	MOVQ R10, DX
	MOVQ R8, CX
	SHRQ $2, CX
	JZ tail

block:
	MOVOU (AX), X0
	MOVOU 16(AX), X1
	PMULULQ X4, X0
	PMULULQ X4, X1
	MOVOU (DX), X2
	MOVOU 16(DX), X3
	PSUBL X2, X0
	PSUBL X3, X1
	SHUFPS $0x88, X1, X0 // the four low words, in order
	PAND X7, X0
	MOVOU (SI), X5
	PXOR X5, X0
	MOVOU X0, (DI)
	ADDQ $32, AX
	ADDQ $32, DX
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JNZ block

tail:
	MOVQ R8, CX
	ANDQ $3, CX
	JZ next

elem:
	MOVQ (AX), R13
	IMULQ BX, R13
	SUBQ (DX), R13
	ANDQ mask+120(FP), R13
	XORL (SI), R13
	MOVL R13, (DI)
	ADDQ $8, AX
	ADDQ $8, DX
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ elem

next:
	ADDQ $8, R11
	DECQ R12
	JNZ cand

done:
	RET

// func addDecoded32(v []Elem, src []byte, mask uint64)
TEXT ·addDecoded32(SB), NOSPLIT, $0-56
	SETUP
	JCXZQ addtail

addblock:
	DECODE4(PADDQ)
	DECQ CX
	JNZ addblock

addtail:
	TESTQ R8, R8
	JZ adddone

addelem:
	DECODE1(ADDQ)
	DECQ R8
	JNZ addelem

adddone:
	RET

// func subDecoded32(v []Elem, src []byte, mask uint64)
TEXT ·subDecoded32(SB), NOSPLIT, $0-56
	SETUP
	JCXZQ subtail

subblock:
	DECODE4(PSUBQ)
	DECQ CX
	JNZ subblock

subtail:
	TESTQ R8, R8
	JZ subdone

subelem:
	DECODE1(SUBQ)
	DECQ R8
	JNZ subelem

subdone:
	RET
