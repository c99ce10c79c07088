package prg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// FastOracle is a fixed-key-AES instantiation of the random oracle used
// on the protocols' hot paths (OT-extension pads, where millions of
// evaluations dominate runtime). Modern MPC implementations (JustGarble,
// emp-toolkit, ABY) model a random oracle with a fixed-key AES
// permutation for exactly this reason; with AES-NI one evaluation is an
// order of magnitude cheaper than SHA-256.
//
// Construction (pi = AES-128 with a per-oracle fixed key derived from the
// domain label):
//
//	absorb:  h <- pi(h XOR b) XOR h XOR b        (Miyaguchi-Preneel style)
//	         over header block (session, index, tweak) then data blocks,
//	         finalised with a length block
//	expand:  out_i = pi(h XOR tau_i) XOR h       (Even-Mansour style)
//
// where tau_i are distinct counter blocks tagged with a domain byte so
// absorption and expansion queries cannot collide. This is the standard
// heuristic instantiation; see DESIGN.md for the security model note.
//
// A FastOracle is immutable after construction and safe for concurrent
// use; all per-query state lives in a Deriver.
type FastOracle struct {
	block cipher.Block
}

// NewFastOracle derives the fixed AES key from the domain label.
func NewFastOracle(label string) *FastOracle {
	sum := sha256.Sum256([]byte("abnn2/fastoracle/" + label))
	blk, err := aes.NewCipher(sum[:16])
	if err != nil {
		panic(fmt.Sprintf("prg: %v", err)) // impossible: key length is fixed
	}
	return &FastOracle{block: blk}
}

// Hash returns n oracle bytes for the query (session, index, tweak, data).
func (o *FastOracle) Hash(session, index, tweak uint64, data []byte, n int) []byte {
	d := o.Deriver()
	d.Header(session, index, tweak, len(data))
	out := make([]byte, n)
	d.XORPad(out, data)
	return out
}

// Deriver evaluates a FastOracle at many data values under one header:
// Header absorbs the (session, index) and (tweak, len) blocks once, and
// every XORPad resumes from that saved chaining value. The OT-extension
// sender asks for N pads per OT that differ only in the data block, so
// this saves two of every six AES calls there. The output for a query is
// exactly FastOracle.Hash of the same query.
//
// The chaining value is held as two little-endian words, so absorbing
// and expanding are word XORs around the AES call. The AES operands live
// in the struct, not on the stack: Encrypt is an interface call, and
// stack operands would escape to the heap on every call. One Deriver
// serves one goroutine.
type Deriver struct {
	block   cipher.Block
	g0, g1  uint64 // chaining value after the two header blocks
	dataLen int    // data length the header committed to
	in, out [16]byte
}

// Deriver returns a Deriver for o, by value so that a caller's own
// per-goroutine state can embed it. Header must be called before the
// first XORPad.
func (o *FastOracle) Deriver() Deriver {
	return Deriver{block: o.block, dataLen: -1}
}

// absorb returns the chaining value pi(h XOR b) XOR h XOR b.
func (d *Deriver) absorb(h0, h1, b0, b1 uint64) (uint64, uint64) {
	x0, x1 := h0^b0, h1^b1
	binary.LittleEndian.PutUint64(d.in[0:], x0)
	binary.LittleEndian.PutUint64(d.in[8:], x1)
	d.block.Encrypt(d.out[:], d.in[:])
	return binary.LittleEndian.Uint64(d.out[0:]) ^ x0, binary.LittleEndian.Uint64(d.out[8:]) ^ x1
}

// Header starts the queries (session, index, tweak, data) for data of
// dataLen bytes, replacing any earlier header.
func (d *Deriver) Header(session, index, tweak uint64, dataLen int) {
	h0, h1 := d.absorb(0, 0, session, index)
	d.g0, d.g1 = d.absorb(h0, h1, tweak, uint64(dataLen))
	d.dataLen = dataLen
}

// XORPad XORs len(dst) oracle bytes for the query (header, data) into
// dst. len(data) must be the dataLen given to Header.
func (d *Deriver) XORPad(dst, data []byte) {
	if len(data) != d.dataLen {
		panic(fmt.Sprintf("prg: Deriver data is %d bytes, header said %d", len(data), d.dataLen))
	}
	h0, h1 := d.g0, d.g1
	// Data blocks, the last one zero-padded.
	for ; len(data) >= 16; data = data[16:] {
		h0, h1 = d.absorb(h0, h1, binary.LittleEndian.Uint64(data[0:]), binary.LittleEndian.Uint64(data[8:]))
	}
	if len(data) != 0 {
		var tail [16]byte
		copy(tail[:], data)
		h0, h1 = d.absorb(h0, h1, binary.LittleEndian.Uint64(tail[0:]), binary.LittleEndian.Uint64(tail[8:]))
	}
	// Finalisation block (domain-separates absorb from expand).
	h0, h1 = d.absorb(h0, h1, 0, 0xA5<<56)
	// Expand: block i is pi(h XOR tau_i) XOR h, tau_i = (i, 0xEE<<56).
	binary.LittleEndian.PutUint64(d.in[8:], h1^0xEE<<56)
	for i := uint64(0); len(dst) != 0; i++ {
		binary.LittleEndian.PutUint64(d.in[0:], h0^i)
		d.block.Encrypt(d.out[:], d.in[:])
		e0 := binary.LittleEndian.Uint64(d.out[0:]) ^ h0
		e1 := binary.LittleEndian.Uint64(d.out[8:]) ^ h1
		if len(dst) >= 16 {
			binary.LittleEndian.PutUint64(dst[0:], binary.LittleEndian.Uint64(dst[0:])^e0)
			binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(dst[8:])^e1)
			dst = dst[16:]
			continue
		}
		// Last, partial block: one whole word if it fits, then bytes.
		if len(dst) >= 8 {
			binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^e0)
			dst, e0 = dst[8:], e1
		}
		for k := range dst {
			dst[k] ^= byte(e0 >> (8 * uint(k)))
		}
		return
	}
}
