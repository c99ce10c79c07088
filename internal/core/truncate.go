package core

import "abnn2/internal/ring"

// Local probabilistic share truncation, the SecureML (S&P'17, §4.1)
// technique. ABNN2 itself never rescales activations, which means a
// multi-layer network overflows Z_2^32 for realistic magnitudes; the
// paper benchmarks cost only and leaves this gap open. We close it the
// way SecureML does:
//
// Given additive shares z0 + z1 = z mod 2^l with |z| << 2^(l-1), each
// party shifts its own share locally:
//
//	z0' = floor(z0 / 2^t)                      (server)
//	z1' = -floor((2^l - z1) / 2^t) mod 2^l     (client)
//
// Then z0' + z1' = floor(z / 2^t) + e with e in {-1, 0, +1}, except with
// probability about |z| / 2^(l-1) (when the shares wrap), which is
// negligible while values stay far from the ring boundary. No
// communication, no interaction.
//
// Requantization combines a public scalar multiply (free on additive
// shares) with truncation to map a layer's raw integer output back to
// the activation fixed-point scale: y' ~= y * c / 2^t for the public
// rational c/2^t chosen at quantization time (see nn.QuantizeRequant).

// TruncShare0 truncates the server-side share by t bits.
func TruncShare0(rg ring.Ring, z ring.Elem, t uint) ring.Elem {
	return (z & rg.Mask()) >> t
}

// TruncShare1 truncates the client-side share by t bits.
func TruncShare1(rg ring.Ring, z ring.Elem, t uint) ring.Elem {
	neg := rg.Neg(z)
	return rg.Neg(neg >> t)
}

// RequantShare0 applies the public rescale c/2^t to a server share.
func RequantShare0(rg ring.Ring, z ring.Elem, c uint64, t uint) ring.Elem {
	return TruncShare0(rg, rg.MulConst(c, z), t)
}

// RequantShare1 applies the public rescale c/2^t to a client share.
func RequantShare1(rg ring.Ring, z ring.Elem, c uint64, t uint) ring.Elem {
	return TruncShare1(rg, rg.MulConst(c, z), t)
}

// RequantVec0 rescales a server share vector in place.
func RequantVec0(rg ring.Ring, z ring.Vec, c uint64, t uint) {
	for i := range z {
		z[i] = RequantShare0(rg, z[i], c, t)
	}
}

// RequantVec1 rescales a client share vector in place.
func RequantVec1(rg ring.Ring, z ring.Vec, c uint64, t uint) {
	for i := range z {
		z[i] = RequantShare1(rg, z[i], c, t)
	}
}
