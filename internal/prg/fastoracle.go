package prg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// FastOracle is the fixed-key-AES instantiation of the random oracle on
// the protocols' hot paths (OT-extension pads, millions per request), as
// in JustGarble, emp-toolkit and ABY: with AES-NI one evaluation is an
// order of magnitude cheaper than SHA-256.
//
// With pi = AES-128 under a key derived from the domain label and
// f(h, b) = pi(h XOR b) XOR h XOR b, the n output bytes of the query
// (session, index, tweak, data) are, short being 1 when n <= 16,
//
//	g_blk = f(0, (session, tweak<<32 | len(data)<<1 | short))
//	g_j   = f(g_blk, (index, 0))
//	c     = f(...f(g_j, d_0)..., d_last)   16-byte blocks of data, the last zero-padded
//	out   = c[:n]                          when short
//	out_i = pi(c XOR tau_i) XOR c          otherwise, tau_i = (i, 0xEE<<56)
//
// The header commits to the chain's length, so the chain is prefix-free
// without a finalisation block, and the short bit keeps any c from being
// both output and expanded (SECURITY.md, "Random oracles").
//
// A FastOracle is safe for concurrent use; per-query state lives in a
// Deriver. Block is exported so that a test can count the calls to it.
type FastOracle struct {
	Block cipher.Block
}

// NewFastOracle derives the fixed AES key from the domain label.
func NewFastOracle(label string) *FastOracle {
	sum := sha256.Sum256([]byte("abnn2/fastoracle/" + label))
	blk, err := aes.NewCipher(sum[:16])
	if err != nil {
		panic(fmt.Sprintf("prg: %v", err)) // impossible: key length is fixed
	}
	return &FastOracle{Block: blk}
}

// Hash returns n oracle bytes for the query (session, index, tweak, data).
func (o *FastOracle) Hash(session, index, tweak uint64, data []byte, n int) []byte {
	d := o.Deriver(session, tweak, len(data))
	d.Index(index)
	out := make([]byte, n)
	d.XORPad(out, data)
	return out
}

// Deriver evaluates a FastOracle over one block of OTs: it is made for
// what the block's queries share, Index selects the OT, and every XORPad
// resumes from g_j. g_blk and g_j depend on the output shape, which only
// XORPad learns, so the first XORPad that needs one computes it: one AES
// call per shape per Deriver, one per shape per Index, and then a pad
// costs its data blocks (and its expansion when n > 16). The output is
// exactly FastOracle.Hash of the same query.
//
// Chaining values are two little-endian words, so absorbing and expanding
// are word XORs around the AES call. The AES operands live in the struct:
// Encrypt is an interface call, and stack operands would escape to the
// heap on every call. One Deriver serves one goroutine.
type Deriver struct {
	block                cipher.Block
	session, meta, index uint64 // meta: the header word with short clear
	dataLen              int    // data length the header commits to
	blk                  [2][2]uint64
	blkOK                [2]bool // blk[short] holds g_blk
	g0, g1               uint64
	shape                int // g0, g1 are g_j at short = shape; -1: not computed
	in, out              [16]byte
}

// Deriver returns a Deriver for the queries (session, *, tweak, data of
// dataLen bytes), by value so that a caller's per-goroutine state can
// embed it. Tweak and dataLen share a header word: 32 and 31 bits.
func (o *FastOracle) Deriver(session, tweak uint64, dataLen int) Deriver {
	if tweak>>32 != 0 || uint64(dataLen)>>31 != 0 {
		panic(fmt.Sprintf("prg: tweak %#x or data length %d does not fit the oracle's header block", tweak, dataLen))
	}
	return Deriver{block: o.Block, session: session, meta: tweak<<32 | uint64(dataLen)<<1, dataLen: dataLen, shape: -1}
}

// absorb returns the chaining value pi(h XOR b) XOR h XOR b.
func (d *Deriver) absorb(h0, h1, b0, b1 uint64) (uint64, uint64) {
	x0, x1 := h0^b0, h1^b1
	binary.LittleEndian.PutUint64(d.in[0:], x0)
	binary.LittleEndian.PutUint64(d.in[8:], x1)
	d.block.Encrypt(d.out[:], d.in[:])
	return binary.LittleEndian.Uint64(d.out[0:]) ^ x0, binary.LittleEndian.Uint64(d.out[8:]) ^ x1
}

// Index selects the query index — the OT — of the following XORPads.
func (d *Deriver) Index(index uint64) { d.index, d.shape = index, -1 }

// XORPad XORs len(dst) oracle bytes for the query (header, index, data)
// into dst. len(data) must be the Deriver's dataLen.
func (d *Deriver) XORPad(dst, data []byte) {
	if len(data) != d.dataLen {
		panic(fmt.Sprintf("prg: Deriver data is %d bytes, header says %d", len(data), d.dataLen))
	}
	short := 0
	if len(dst) <= 16 {
		short = 1
	}
	if d.shape != short {
		if !d.blkOK[short] {
			d.blk[short][0], d.blk[short][1] = d.absorb(0, 0, d.session, d.meta|uint64(short))
			d.blkOK[short] = true
		}
		d.g0, d.g1 = d.absorb(d.blk[short][0], d.blk[short][1], d.index, 0)
		d.shape = short
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
	if short == 1 {
		xorBlock(dst, h0, h1)
		return
	}
	// Expand: block i is pi(c XOR tau_i) XOR c.
	binary.LittleEndian.PutUint64(d.in[8:], h1^0xEE<<56)
	for i := uint64(0); len(dst) != 0; i++ {
		binary.LittleEndian.PutUint64(d.in[0:], h0^i)
		d.block.Encrypt(d.out[:], d.in[:])
		xorBlock(dst, binary.LittleEndian.Uint64(d.out[0:])^h0, binary.LittleEndian.Uint64(d.out[8:])^h1)
		dst = dst[min(16, len(dst)):]
	}
}

// xorBlock XORs the first min(len(dst), 16) bytes of the block (e0, e1)
// into dst: whole words where they fit, then bytes.
func xorBlock(dst []byte, e0, e1 uint64) {
	if len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^e0)
		if len(dst) >= 16 {
			binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(dst[8:])^e1)
			return
		}
		dst, e0 = dst[8:], e1
	}
	for k := range dst {
		dst[k] ^= byte(e0 >> (8 * uint(k)))
	}
}
