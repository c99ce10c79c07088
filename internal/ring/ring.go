// Package ring implements arithmetic over the ring Z_{2^l} for bit widths
// l in [1, 64], the algebraic substrate of every ABNN2 protocol. Elements
// are represented as uint64 values reduced modulo 2^l; for l = 64 the
// reduction is native machine arithmetic.
//
// The package also provides fixed-point encoding of real values into ring
// elements, which is how activations enter the cryptographic domain
// (paper section 2.2: "Activations will be in float-point form and be
// encoded as fixed-point").
package ring

import (
	"fmt"
	"math"
)

// Elem is a ring element. Values are kept reduced: only the low Ring.Bits
// bits may be non-zero. All operations that produce an Elem reduce it.
type Elem = uint64

// Ring describes Z_{2^l}. The zero value is invalid; use New.
type Ring struct {
	bits uint   // l
	mask uint64 // 2^l - 1
}

// New returns the ring Z_{2^bits}. It panics if bits is outside [1, 64];
// ring selection is a static configuration decision, not a runtime input.
func New(bits uint) Ring {
	if bits < 1 || bits > 64 {
		panic(fmt.Sprintf("ring: invalid bit width %d (want 1..64)", bits))
	}
	if bits == 64 {
		return Ring{bits: 64, mask: ^uint64(0)}
	}
	return Ring{bits: bits, mask: (uint64(1) << bits) - 1}
}

// Bits returns l for the ring Z_{2^l}.
func (r Ring) Bits() uint { return r.bits }

// Mask returns 2^l - 1.
func (r Ring) Mask() uint64 { return r.mask }

// Bytes returns the number of bytes needed to serialize one element:
// ceil(l/8).
func (r Ring) Bytes() int { return int(r.bits+7) / 8 }

// Reduce maps an arbitrary uint64 into the ring.
func (r Ring) Reduce(x uint64) Elem { return x & r.mask }

// Add returns a+b mod 2^l.
func (r Ring) Add(a, b Elem) Elem { return (a + b) & r.mask }

// Sub returns a-b mod 2^l.
func (r Ring) Sub(a, b Elem) Elem { return (a - b) & r.mask }

// Neg returns -a mod 2^l.
func (r Ring) Neg(a Elem) Elem { return (-a) & r.mask }

// Mul returns a*b mod 2^l.
func (r Ring) Mul(a, b Elem) Elem { return (a * b) & r.mask }

// MulConst returns c*a mod 2^l for a public constant c.
func (r Ring) MulConst(c uint64, a Elem) Elem { return (c * a) & r.mask }

// Signed interprets x in two's complement over l bits, returning a value in
// [-2^(l-1), 2^(l-1)). This is how shares are decoded back to integers.
func (r Ring) Signed(x Elem) int64 {
	x &= r.mask
	if r.bits == 64 {
		return int64(x)
	}
	sign := uint64(1) << (r.bits - 1)
	if x&sign != 0 {
		return int64(x) - int64(uint64(1)<<r.bits)
	}
	return int64(x)
}

// FromSigned embeds a signed integer into the ring (two's complement).
func (r Ring) FromSigned(v int64) Elem { return uint64(v) & r.mask }

// IsNegative reports whether x, interpreted in two's complement, is < 0.
// Equivalently it returns the most significant bit of x. ReLU protocols
// branch on exactly this bit.
func (r Ring) IsNegative(x Elem) bool {
	return (x>>(r.bits-1))&1 == 1
}

// FixedPoint converts real values to and from ring elements with a given
// number of fractional bits.
type FixedPoint struct {
	R    Ring
	Frac uint // number of fractional bits
}

// NewFixedPoint returns a fixed-point codec with frac fractional bits over
// the given ring. It panics if frac >= ring bits, which would leave no
// integer part.
func NewFixedPoint(r Ring, frac uint) FixedPoint {
	if frac >= r.bits {
		panic(fmt.Sprintf("ring: frac bits %d must be < ring bits %d", frac, r.bits))
	}
	return FixedPoint{R: r, Frac: frac}
}

// Encode maps v to round(v * 2^frac) mod 2^l. Values outside the
// representable range wrap, mirroring the behaviour of the fixed-point
// pipelines in SecureML/MiniONN.
func (fp FixedPoint) Encode(v float64) Elem {
	scaled := math.Round(v * float64(uint64(1)<<fp.Frac))
	return fp.R.FromSigned(int64(scaled))
}

// Decode maps a ring element back to a real value, interpreting the element
// in two's complement.
func (fp FixedPoint) Decode(x Elem) float64 {
	return float64(fp.R.Signed(x)) / float64(uint64(1)<<fp.Frac)
}

// MaxAbs returns the largest magnitude representable: 2^(l-1-frac).
func (fp FixedPoint) MaxAbs() float64 {
	return math.Pow(2, float64(fp.R.bits-1-fp.Frac))
}
