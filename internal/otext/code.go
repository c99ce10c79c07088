// Package otext implements IKNP-style oblivious-transfer extension and its
// 1-out-of-N generalisation by Kolesnikov and Kumaresan (KK13), the
// workhorse primitive of ABNN2's multiplication protocols (paper
// section 2.3 and Figure 1).
//
// A single generalised core covers both: the receiver's choice is encoded
// by a binary code C, the sender holds a random string s of the code
// width, and after the extension round the sender can derive a pad for
// every possible choice value v as H(q_j XOR (C(v) AND s)) while the
// receiver can derive only the pad for its actual choice. C is one family
// of punctured Walsh-Hadamard codes sized to the number of choices: 128
// columns at N = 2, which is IKNP 1-out-of-2 OT, up to 2*kappa = 256
// columns for N above 32 — the "2*kappa" term in the communication
// formulas of the paper's Table 1 is this family's widest member.
package otext

import (
	"fmt"
	"math/bits"
)

// Kappa is the computational security parameter in bits.
const Kappa = 128

// Code encodes receiver choices in [0, N) as binary codewords of
// WidthBits bits: the KK13 code for 1-out-of-N OT. Every Code is a prefix
// of one 256-column Walsh-Hadamard code, cut where its N choices stop
// needing columns, so two properties hold for every pair of codes a, b
// with a.N() <= b.N():
//
//   - Distance. Any two of a's codewords differ in exactly Kappa bits, so
//     for any two distinct choices Kappa bits of the sender secret s
//     remain hidden in the receiver's view.
//   - Nesting. a.Encode(v) is the first a.WidthBits() bits of b.Encode(v)
//     for every v < a.N(). An extension set up for b therefore runs a by
//     using its first a.WidthBits() columns, and one set up for a becomes
//     one for b by adding base OTs for the missing columns only.
//
// The zero Code has no choices and no columns.
type Code struct{ n, width int }

// whTable holds the 256-column Walsh-Hadamard code over 8-bit messages:
// the bit of codeword w at column x is the parity of w AND x. The columns
// are ordered by ascending count of trailing zero bits of x — the 128 odd
// x, then the 64 with one trailing zero, ... then x = 128, then x = 0 —
// because a column x is zero on every codeword below 2^k exactly when x
// has at least k trailing zeros (w AND x then has no bit to count). The
// columns that the first 2^k codewords use are thus exactly the first
// 256 - 256/2^k, and dropping the rest removes nothing from any pairwise
// distance among those codewords: it stays the full code's 128.
// Codewords are precomputed once: Encode sits on the per-pad hot path of
// the OT extension.
var whTable = func() *[256][32]byte {
	var cols [256]byte // cols[255] = 0
	k := 0
	for tz := uint(0); tz < 8; tz++ {
		for x := 1 << tz; x < 256; x += 2 << tz {
			cols[k] = byte(x)
			k++
		}
	}
	var t [256][32]byte
	for w := range t {
		for pos, x := range cols {
			t[w][pos/8] |= byte(bits.OnesCount8(byte(w)&x)&1) << (pos % 8)
		}
	}
	return &t
}()

// WalshHadamardCode returns the KK13 code for 1-out-of-n OT, n in
// [2,256]: 128 columns at n = 2, 192 up to 4, 224 up to 8, 240 up to 16,
// 248 up to 32 and 256 above.
func WalshHadamardCode(n int) Code {
	if n < 2 || n > 256 {
		panic(fmt.Sprintf("otext: Walsh-Hadamard code supports N in [2,256], got %d", n))
	}
	// The columns the first 2^k codewords use, 2^k the next power of two
	// at or above n, rounded up to whole bytes (which only changes 252,
	// 254 and 255 into 256).
	k := bits.Len(uint(n - 1))
	return Code{n: n, width: (2*Kappa - 2*Kappa>>k + 7) &^ 7}
}

// RepetitionCode returns the IKNP 1-out-of-2 code, C(0) = 0^128 and
// C(1) = 1^128: the family's N = 2 member, whose 128 columns are the odd
// x, on which codeword 1 is all ones.
func RepetitionCode() Code { return WalshHadamardCode(2) }

// N is the number of encodable choices.
func (c Code) N() int { return c.n }

// WidthBits is the codeword length in bits, a whole number of bytes.
func (c Code) WidthBits() int { return c.width }

// Encode writes the codeword for choice (in [0, N)) into dst, which
// has WidthBits()/8 bytes.
func (c Code) Encode(choice int, dst []byte) {
	if choice < 0 || choice >= c.n {
		panic(fmt.Sprintf("otext: choice %d out of range [0,%d)", choice, c.n))
	}
	copy(dst, whTable[choice][:c.width/8])
}
