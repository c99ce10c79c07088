package prg

import (
	"crypto/sha256"
	"encoding/binary"
)

// ROWidth is the random-oracle output width in bytes. The paper fixes the
// RO output to 128 bits ("the bit output of random oracle is 128",
// section 4.1.3), which is what the Table 1 communication formulas assume.
const ROWidth = 16

// Oracle is the random oracle H used by the OT extensions and the
// multiplication protocols. Each call is domain-separated by a protocol
// label and a (session, index, tweak) triple so that every invocation in a
// protocol transcript queries a distinct point of the oracle.
//
// The oracle is stateless and safe for concurrent use.
type Oracle struct {
	label []byte
}

// NewOracle returns an oracle for the given protocol domain label.
func NewOracle(label string) *Oracle {
	return &Oracle{label: []byte(label)}
}

// Hash returns n oracle bytes for the query (session, index, tweak,
// data): SHA-256 in counter mode, 32 bytes per counter value.
func (o *Oracle) Hash(session uint64, index uint64, tweak uint64, data []byte, n int) []byte {
	out := make([]byte, 0, n)
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], session)
	binary.LittleEndian.PutUint64(hdr[8:], index)
	binary.LittleEndian.PutUint64(hdr[16:], tweak)
	var ctr uint32
	for len(out) < n {
		h := sha256.New()
		h.Write(o.label)
		h.Write(hdr[:])
		var cb [4]byte
		binary.LittleEndian.PutUint32(cb[:], ctr)
		h.Write(cb[:])
		h.Write(data)
		out = h.Sum(out)
		ctr++
	}
	return out[:n]
}

// Block returns a single 128-bit oracle output, the common case in the
// OT-extension inner loops (one RO block per transferred message).
func (o *Oracle) Block(session, index, tweak uint64, data []byte) [ROWidth]byte {
	var out [ROWidth]byte
	h := sha256.New()
	h.Write(o.label)
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], session)
	binary.LittleEndian.PutUint64(hdr[8:], index)
	binary.LittleEndian.PutUint64(hdr[16:], tweak)
	h.Write(hdr[:])
	h.Write([]byte{0, 0, 0, 0})
	h.Write(data)
	copy(out[:], h.Sum(nil))
	return out
}

// XORBytes sets dst = a XOR b; all three must have equal length. It returns
// dst for chaining.
func XORBytes(dst, a, b []byte) []byte {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("prg: XORBytes length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
	return dst
}
