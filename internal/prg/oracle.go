package prg

import (
	"crypto/sha256"
	"crypto/subtle"
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

// sum appends SHA-256(label, session, index, tweak, ctr, data) to out.
func (o *Oracle) sum(out []byte, session, index, tweak uint64, ctr uint32, data []byte) []byte {
	var hdr [28]byte
	binary.LittleEndian.PutUint64(hdr[0:], session)
	binary.LittleEndian.PutUint64(hdr[8:], index)
	binary.LittleEndian.PutUint64(hdr[16:], tweak)
	binary.LittleEndian.PutUint32(hdr[24:], ctr)
	h := sha256.New()
	h.Write(o.label)
	h.Write(hdr[:])
	h.Write(data)
	return h.Sum(out)
}

// Hash returns n oracle bytes for the query (session, index, tweak,
// data): SHA-256 in counter mode, 32 bytes per counter value.
func (o *Oracle) Hash(session uint64, index uint64, tweak uint64, data []byte, n int) []byte {
	out := make([]byte, 0, n)
	for ctr := uint32(0); len(out) < n; ctr++ {
		out = o.sum(out, session, index, tweak, ctr, data)
	}
	return out[:n]
}

// Block returns a single 128-bit oracle output, the first ROWidth bytes
// of Hash: the common case in the OT set-up (one RO block per key).
func (o *Oracle) Block(session, index, tweak uint64, data []byte) (out [ROWidth]byte) {
	copy(out[:], o.sum(nil, session, index, tweak, 0, data))
	return out
}

// XORBytes sets dst = a XOR b; all three must have equal length. It returns
// dst for chaining.
func XORBytes(dst, a, b []byte) []byte {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("prg: XORBytes length mismatch")
	}
	subtle.XORBytes(dst, a, b)
	return dst
}
