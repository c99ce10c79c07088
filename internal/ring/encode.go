package ring

import (
	"encoding/binary"
	"fmt"
)

// Serialization of ring elements. Protocol messages carry elements in
// little-endian order truncated to Ring.Bytes() bytes each, which is what
// the communication-cost formulas in the paper's Table 1 count as "l bits
// per element".

// AppendElem appends the ceil(l/8)-byte little-endian encoding of x to dst.
func (r Ring) AppendElem(dst []byte, x Elem) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x&r.mask)
	return append(dst, buf[:r.Bytes()]...)
}

// PutElem writes the encoding of x over the first Bytes() bytes of dst,
// for a caller that laid the buffer out itself.
func (r Ring) PutElem(dst []byte, x Elem) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x&r.mask)
	copy(dst[:r.Bytes()], buf[:])
}

// GetElem reads the element encoded in the first Bytes() bytes of src. It
// is PutElem's inverse for a buffer whose length the caller has already
// checked; bytes that cross a trust boundary unchecked go to DecodeElem.
func (r Ring) GetElem(src []byte) Elem {
	var buf [8]byte
	copy(buf[:], src[:r.Bytes()])
	return binary.LittleEndian.Uint64(buf[:]) & r.mask
}

// AppendVec appends every element of v to dst.
func (r Ring) AppendVec(dst []byte, v Vec) []byte {
	for _, x := range v {
		dst = r.AppendElem(dst, x)
	}
	return dst
}

// DecodeElem reads one element from src, returning it and the remaining
// bytes. It returns an error if src is too short: protocol framing bugs
// must surface as errors, not panics, because src crosses a trust boundary.
func (r Ring) DecodeElem(src []byte) (Elem, []byte, error) {
	n := r.Bytes()
	if len(src) < n {
		return 0, nil, fmt.Errorf("ring: short element encoding: have %d bytes, want %d", len(src), n)
	}
	return r.GetElem(src), src[n:], nil
}

// DecodeVec reads count elements from src.
func (r Ring) DecodeVec(src []byte, count int) (Vec, []byte, error) {
	if need := count * r.Bytes(); len(src) < need {
		return nil, nil, fmt.Errorf("ring: short vector encoding: have %d bytes, want %d", len(src), need)
	}
	out := make(Vec, count)
	var err error
	for i := range out {
		out[i], src, err = r.DecodeElem(src)
		if err != nil {
			return nil, nil, err
		}
	}
	return out, src, nil
}

// VecBytes returns the wire size of an n-element vector.
func (r Ring) VecBytes(n int) int { return n * r.Bytes() }

// FromBytesFull interprets exactly 8 bytes as one uint64 and reduces it.
// Used when expanding PRG output into ring elements.
func (r Ring) FromBytesFull(b []byte) Elem {
	return binary.LittleEndian.Uint64(b) & r.mask
}
