// Package quant implements arbitrary-bitwidth weight quantization and the
// fragment decomposition at the heart of ABNN2 (paper equation 2):
//
//	w * r = sum_{i=0}^{gamma-1} N^i * w[i] * r
//
// An eta-bit weight is split into gamma fragments; fragment i has its own
// candidate count N_i = 2^{width_i} and contributes Value(i, t) * r to the
// product. The paper's tuple notation, e.g. eta = 8 with (2,2,2,2) or
// (3,3,2), lists fragment widths from the lowest bit to the highest.
//
// Signed weights are handled inside the top fragment: because the OT
// sender enumerates every candidate value anyway, the candidates of the
// top fragment are interpreted in two's complement, so signed
// multiplication costs nothing extra. Ternary {-1,0,1} weights are a
// dedicated 3-candidate scheme, matching the paper's "ternary" rows.
package quant

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Scheme describes how one quantized weight is decomposed into OT
// choices. Implementations must satisfy, for all representable w:
//
//	sum_i Value(i, Decompose(w)[i]) == w
//
// (SecureML's modulo 2^l, the ring it is built for) and, for every
// fragment i,
//
//	Value(i, 0) == 0
//
// which every ABNN2 layer's correctness rests on: the triplet generator
// sends no ciphertext for candidate 0, whose pad is the client's mask, so
// a server that chose 0 adds only the negated mask (Value(i, 0)*r = 0).
type Scheme interface {
	// Name is the paper-style designation, e.g. "8(2,2,2,2)" or "ternary".
	Name() string
	// Gamma is the number of fragments (OTs per weight element).
	Gamma() int
	// FragmentN returns the candidate count of fragment i.
	FragmentN(i int) int
	// Value returns the signed integer contribution of candidate t at
	// fragment i.
	Value(i, t int) int64
	// Decompose splits w into per-fragment candidate indices. It returns
	// an error if w is outside the representable range.
	Decompose(w int64) ([]int, error)
	// Range returns the representable closed interval [min, max].
	Range() (min, max int64)
}

// bitScheme decomposes an eta-bit two's-complement (or unsigned) weight
// into fragments of the given widths, lowest bits first.
type bitScheme struct {
	widths []uint
	eta    uint
	signed bool
}

// NewBitScheme builds a power-of-two fragment scheme. widths are listed
// from the lowest bit to the highest (paper convention). If signed, the
// weight is interpreted in two's complement over eta = sum(widths) bits.
func NewBitScheme(signed bool, widths ...uint) Scheme {
	if len(widths) == 0 {
		panic("quant: scheme needs at least one fragment")
	}
	var eta uint
	for _, w := range widths {
		if w == 0 || w > 8 {
			panic(fmt.Sprintf("quant: fragment width %d out of range [1,8]", w))
		}
		eta += w
	}
	if eta > 32 {
		panic(fmt.Sprintf("quant: total bitwidth %d exceeds 32", eta))
	}
	cp := make([]uint, len(widths))
	copy(cp, widths)
	return &bitScheme{widths: cp, eta: eta, signed: signed}
}

func (s *bitScheme) Name() string {
	parts := make([]string, len(s.widths))
	for i, w := range s.widths {
		parts[i] = strconv.Itoa(int(w))
	}
	// The "u" prefix mirrors Parse: without it an unsigned scheme's name
	// would deserialise as the signed scheme of the same widths, whose
	// range rejects the upper half of the unsigned weights.
	prefix := ""
	if !s.signed {
		prefix = "u"
	}
	return fmt.Sprintf("%s%d(%s)", prefix, s.eta, strings.Join(parts, ","))
}

func (s *bitScheme) Gamma() int { return len(s.widths) }

func (s *bitScheme) FragmentN(i int) int { return 1 << s.widths[i] }

func (s *bitScheme) offset(i int) uint {
	var off uint
	for k := 0; k < i; k++ {
		off += s.widths[k]
	}
	return off
}

func (s *bitScheme) Value(i, t int) int64 {
	n := 1 << s.widths[i]
	if t < 0 || t >= n {
		panic(fmt.Sprintf("quant: candidate %d out of range [0,%d)", t, n))
	}
	v := int64(t)
	if s.signed && i == len(s.widths)-1 && t >= n/2 {
		v -= int64(n) // two's-complement top fragment
	}
	return v << s.offset(i)
}

func (s *bitScheme) Range() (int64, int64) {
	if s.signed {
		return -(int64(1) << (s.eta - 1)), (int64(1) << (s.eta - 1)) - 1
	}
	return 0, (int64(1) << s.eta) - 1
}

func (s *bitScheme) Decompose(w int64) ([]int, error) {
	min, max := s.Range()
	if w < min || w > max {
		return nil, fmt.Errorf("quant: weight %d outside %s range [%d,%d]", w, s.Name(), min, max)
	}
	u := uint64(w) & ((1 << s.eta) - 1) // two's complement over eta bits
	out := make([]int, len(s.widths))
	for i, width := range s.widths {
		out[i] = int(u & ((1 << width) - 1))
		u >>= width
	}
	return out, nil
}

// ternaryScheme is the single-fragment {-1, 0, +1} scheme with three
// candidates, matching the paper's ternary rows (N = 3).
type ternaryScheme struct{}

// Ternary returns the ternary weight scheme.
func Ternary() Scheme { return ternaryScheme{} }

func (ternaryScheme) Name() string          { return "ternary" }
func (ternaryScheme) Gamma() int            { return 1 }
func (ternaryScheme) FragmentN(int) int     { return 3 }
func (ternaryScheme) Range() (int64, int64) { return -1, 1 }

func (ternaryScheme) Value(i, t int) int64 {
	switch t {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return -1
	}
	panic(fmt.Sprintf("quant: ternary candidate %d out of range", t))
}

func (ternaryScheme) Decompose(w int64) ([]int, error) {
	switch w {
	case 0:
		return []int{0}, nil
	case 1:
		return []int{1}, nil
	case -1:
		return []int{2}, nil
	}
	return nil, fmt.Errorf("quant: weight %d is not ternary", w)
}

// named wraps a scheme with a display name, e.g. "binary" for 1(1).
type named struct {
	Scheme
	name string
}

func (n named) Name() string { return n.name }

// Binary returns the single-bit {0, 1} scheme, the paper's "binary" rows.
func Binary() Scheme { return named{Scheme: NewBitScheme(false, 1), name: "binary"} }

// Uniform returns the signed scheme with gamma fragments of `width` bits
// each, e.g. Uniform(2, 4) is 8(2,2,2,2).
func Uniform(width uint, gamma int) Scheme {
	widths := make([]uint, gamma)
	for i := range widths {
		widths[i] = width
	}
	return NewBitScheme(true, widths...)
}

// Parse converts a paper-style designation into a Scheme: "binary",
// "ternary", or "eta(w1,w2,...)" such as "8(2,2,2,2)" (signed) and
// "u8(2,2,2,2)" (unsigned).
func Parse(s string) (Scheme, error) {
	switch s {
	case "binary":
		return Binary(), nil
	case "ternary":
		return Ternary(), nil
	}
	signed := true
	body := s
	if strings.HasPrefix(body, "u") {
		signed = false
		body = body[1:]
	}
	open := strings.IndexByte(body, '(')
	if open < 0 || !strings.HasSuffix(body, ")") {
		return nil, fmt.Errorf("quant: cannot parse scheme %q", s)
	}
	eta, err := strconv.Atoi(body[:open])
	if err != nil {
		return nil, fmt.Errorf("quant: bad bitwidth in %q: %v", s, err)
	}
	parts := strings.Split(body[open+1:len(body)-1], ",")
	widths := make([]uint, len(parts))
	var sum int
	for i, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w <= 0 || w > 8 {
			return nil, fmt.Errorf("quant: bad fragment width %q in %q", p, s)
		}
		widths[i] = uint(w)
		sum += w
	}
	if sum != eta || eta > 32 {
		return nil, fmt.Errorf("quant: widths in %q sum to %d, want %d and at most 32", s, sum, eta)
	}
	return NewBitScheme(signed, widths...), nil
}

// secureMLScheme is SecureML's bitwise decomposition over an l-bit ring:
// l one-bit fragments, fragment i worth 2^i, so each bit of the weight
// read as an l-bit ring element is one 1-out-of-2 OT. Every int64 is
// representable: its fragments sum to it modulo 2^l, the ring the
// triplet engine embeds Values in, as SecureML reads a weight.
type secureMLScheme uint

// SecureML returns SecureML's decomposition over an l-bit ring, 1 <= l <=
// 64. Its name is not a Parse designation.
func SecureML(l uint) Scheme {
	if l == 0 || l > 64 {
		panic(fmt.Sprintf("quant: SecureML ring width %d out of range [1,64]", l))
	}
	return secureMLScheme(l)
}

func (s secureMLScheme) Name() string        { return "secureml" + strconv.Itoa(int(s)) }
func (s secureMLScheme) Gamma() int          { return int(s) }
func (secureMLScheme) FragmentN(int) int     { return 2 }
func (secureMLScheme) Range() (int64, int64) { return math.MinInt64, math.MaxInt64 }
func (secureMLScheme) Value(i, t int) int64  { return int64(t&1) << i }
func (s secureMLScheme) Decompose(w int64) ([]int, error) {
	out := make([]int, s)
	for i := range out {
		out[i] = int(uint64(w) >> i & 1)
	}
	return out, nil
}

// quotientScheme is QUOTIENT's ternary gadget (CCS'19): w in {-1, 0, 1}
// is b+ - b-, two one-bit fragments worth +1 and -1.
type quotientScheme struct{}

// Quotient returns QUOTIENT's two-fragment ternary scheme. Its name is
// not a Parse designation.
func Quotient() Scheme { return quotientScheme{} }

func (quotientScheme) Name() string          { return "quotient" }
func (quotientScheme) Gamma() int            { return 2 }
func (quotientScheme) FragmentN(int) int     { return 2 }
func (quotientScheme) Range() (int64, int64) { return -1, 1 }

func (quotientScheme) Value(i, t int) int64 {
	switch {
	case t == 0:
		return 0
	case t == 1 && i == 0:
		return 1
	case t == 1 && i == 1:
		return -1
	}
	panic(fmt.Sprintf("quant: quotient fragment %d candidate %d out of range", i, t))
}

func (quotientScheme) Decompose(w int64) ([]int, error) {
	switch w {
	case 0:
		return []int{0, 0}, nil
	case 1:
		return []int{1, 0}, nil
	case -1:
		return []int{0, 1}, nil
	}
	return nil, fmt.Errorf("quant: weight %d is not ternary", w)
}

// OneBit returns the (1,...,1) scheme with eta fragments, the paper's
// baseline corresponding to 1-out-of-2 OT (SecureML-style decomposition).
func OneBit(eta uint, signed bool) Scheme {
	widths := make([]uint, eta)
	for i := range widths {
		widths[i] = 1
	}
	return NewBitScheme(signed, widths...)
}
