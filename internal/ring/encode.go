package ring

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"slices"
)

// Serialization of ring elements. Protocol messages carry elements in
// little-endian order truncated to Ring.Bytes() bytes each, which is what
// the communication-cost formulas in the paper's Table 1 count as "l bits
// per element".

// PutElem writes the encoding of x over the first Bytes() bytes of dst,
// for a caller that laid the buffer out itself.
func (r Ring) PutElem(dst []byte, x Elem) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x&r.mask)
	copy(dst[:r.Bytes()], buf[:])
}

// GetElem reads the element encoded in the first Bytes() bytes of src. It
// is PutElem's inverse for a buffer whose length the caller has already
// checked; bytes that cross a trust boundary unchecked go to DecodeVec.
// Bits above l in the encoding are dropped, never rejected: a payload an
// OT decrypted is read whatever its high bits (SECURITY.md).
func (r Ring) GetElem(src []byte) Elem {
	var buf [8]byte
	copy(buf[:], src[:r.Bytes()])
	return binary.LittleEndian.Uint64(buf[:]) & r.mask
}

// PutVec writes v over the first VecBytes(len(v)) bytes of dst, element
// i as PutElem writes it at i*Bytes(). The width is dispatched once per
// span: 4- and 8-byte rings run word stores, the others PutElem.
func (r Ring) PutVec(dst []byte, v Vec) {
	dst = dst[:r.VecBytes(len(v))]
	switch r.Bytes() {
	case 8:
		for i, x := range v {
			binary.LittleEndian.PutUint64(dst[8*i:8*i+8], x&r.mask)
		}
	case 4:
		for i, x := range v {
			binary.LittleEndian.PutUint32(dst[4*i:4*i+4], uint32(x&r.mask))
		}
	default:
		n := r.Bytes()
		for i, x := range v {
			r.PutElem(dst[i*n:], x)
		}
	}
}

// PutMulSub writes, for each cs[k], (c·v[i] − s[i]) ⊕ pads over the
// VecBytes(len(v)) bytes of dst from k·VecBytes(len(v)) on: the bytes
// PutVec writes for that vector of products, span after span, XORed with
// pads at the same offsets. s is at least as long as v; inputs may carry
// bits above l. Spans of at least four elements at a 4-byte width run the
// span kernel (span_amd64.s); the others run word loops at 4 and 8
// bytes and PutElem otherwise, dispatched once per span, then one XOR.
func (r Ring) PutMulSub(dst, pads []byte, cs []Elem, v, s Vec) {
	span := r.VecBytes(len(v))
	dst, pads, s = dst[:len(cs)*span], pads[:len(cs)*span], s[:len(v)]
	if r.kernel(len(v)) {
		putMulSub32(dst, pads, cs, v, s, r.mask)
		return
	}
	out := dst
	for _, c := range cs {
		switch r.Bytes() {
		case 8:
			for i, x := range v {
				binary.LittleEndian.PutUint64(out[8*i:8*i+8], (c*x-s[i])&r.mask)
			}
		case 4:
			for i, x := range v {
				binary.LittleEndian.PutUint32(out[4*i:4*i+4], uint32((c*x-s[i])&r.mask))
			}
		default:
			n := r.Bytes()
			for i, x := range v {
				r.PutElem(out[i*n:], c*x-s[i])
			}
		}
		out = out[span:]
	}
	subtle.XORBytes(dst, dst, pads)
}

// kernel reports whether an n-element span runs the span kernels: a
// 4-byte width on amd64, at least one four-element block long. Shorter
// spans, every one-batch layer's, keep the Go loops.
func (r Ring) kernel(n int) bool { return n >= 4 && spanKernels && r.Bytes() == 4 }

// AddDecoded adds into v, mod 2^l, the len(v) elements encoded in the
// first VecBytes(len(v)) bytes of src, each read as GetElem reads it: it
// masks the bits above l and never rejects. It is PutVec's inverse into a
// zero v.
func (r Ring) AddDecoded(v Vec, src []byte) { r.decode(v, src, 1) }

// SubDecoded is AddDecoded with subtraction: v[i] −= the element encoded
// at src[i·Bytes():], mod 2^l.
func (r Ring) SubDecoded(v Vec, src []byte) { r.decode(v, src, ^uint64(0)) }

// decode adds sign·x into v for each element x that src encodes, sign 1
// or −1, dispatched as PutMulSub is.
func (r Ring) decode(v Vec, src []byte, sign uint64) {
	src = src[:r.VecBytes(len(v))]
	switch r.Bytes() {
	case 8:
		for i := range v {
			v[i] = (v[i] + sign*binary.LittleEndian.Uint64(src[8*i:8*i+8])) & r.mask
		}
	case 4:
		switch {
		case r.kernel(len(v)) && sign == 1:
			addDecoded32(v, src, r.mask)
		case r.kernel(len(v)):
			subDecoded32(v, src, r.mask)
		default:
			for i := range v {
				v[i] = (v[i] + sign*uint64(binary.LittleEndian.Uint32(src[4*i:4*i+4]))) & r.mask
			}
		}
	default:
		n := r.Bytes()
		for i := range v {
			v[i] = (v[i] + sign*r.GetElem(src[i*n:])) & r.mask
		}
	}
}

// AppendVec appends every element of v to dst.
func (r Ring) AppendVec(dst []byte, v Vec) []byte {
	n := len(dst)
	dst = slices.Grow(dst, r.VecBytes(len(v)))[:n+r.VecBytes(len(v))]
	r.PutVec(dst[n:], v)
	return dst
}

// DecodeVec reads count elements from src, returning them and the
// remaining bytes. It returns an error if src is too short: protocol
// framing bugs must surface as errors, not panics, because src crosses a
// trust boundary.
func (r Ring) DecodeVec(src []byte, count int) (Vec, []byte, error) {
	need := r.VecBytes(count)
	if len(src) < need {
		return nil, nil, fmt.Errorf("ring: short vector encoding: have %d bytes, want %d", len(src), need)
	}
	out := make(Vec, count)
	r.AddDecoded(out, src)
	return out, src[need:], nil
}

// VecBytes returns the wire size of an n-element vector.
func (r Ring) VecBytes(n int) int { return n * r.Bytes() }
