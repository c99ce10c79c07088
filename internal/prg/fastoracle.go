package prg

import (
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
// Deriver. Block is exported so that a test can count the calls to it: a
// FastOracle literal evaluates through Block one AES block per call, while
// NewFastOracle's evaluates the same permutation through its Perm.
type FastOracle struct {
	Block cipher.Block
	perm  *Perm // nil in a literal: Derivers wrap Block
}

// NewFastOracle derives the fixed AES key from the domain label.
func NewFastOracle(label string) *FastOracle {
	sum := sha256.Sum256([]byte("abnn2/fastoracle/" + label))
	p := NewPerm(sum[:16])
	return &FastOracle{Block: p.block, perm: p}
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
// or XORPads resumes from g_j. g_blk and g_j depend on the output shape,
// which only the pad call learns, so the first one that needs one computes
// it: one AES call per shape per Deriver, one per shape per Index, and
// then a pad costs its data blocks (and its expansion when n > 16). The
// output is exactly FastOracle.Hash of the same query.
//
// Independent blocks go to the permutation together: the N candidates of
// XORPads absorb each data block in one call per four candidates, and
// expansion blocks, of one pad or of several, go four per call. Chaining
// values are two little-endian words, so absorbing and expanding are word
// XORs around the AES call. One Deriver serves one goroutine.
type Deriver struct {
	perm                 *Perm
	session, meta, index uint64 // meta: the header word with short clear
	dataLen              int    // data length the header commits to
	blk                  [2][2]uint64
	blkOK                [2]bool // blk[short] holds g_blk
	g0, g1               uint64
	shape                int // g0, g1 are g_j at short = shape; -1: not computed
	lanes                Lanes
}

// Deriver returns a Deriver for the queries (session, *, tweak, data of
// dataLen bytes), by value so that a caller's per-goroutine state can
// embed it. Tweak and dataLen share a header word: 32 and 31 bits.
func (o *FastOracle) Deriver(session, tweak uint64, dataLen int) Deriver {
	if tweak>>32 != 0 || uint64(dataLen)>>31 != 0 {
		panic(fmt.Sprintf("prg: tweak %#x or data length %d does not fit the oracle's header block", tweak, dataLen))
	}
	p := o.perm
	if p == nil {
		p = WrapBlock(o.Block)
	}
	return Deriver{perm: p, session: session, meta: tweak<<32 | uint64(dataLen)<<1, dataLen: dataLen, shape: -1}
}

// absorb returns the chaining value pi(h XOR b) XOR h XOR b.
func (d *Deriver) absorb(h0, h1, b0, b1 uint64) (uint64, uint64) {
	x0, x1 := h0^b0, h1^b1
	d.lanes.put(0, x0, x1)
	d.perm.Encrypt(&d.lanes, 1)
	e0, e1 := d.lanes.get(0)
	return e0 ^ x0, e1 ^ x1
}

// Index selects the query index — the OT — of the following pad calls.
func (d *Deriver) Index(index uint64) { d.index, d.shape = index, -1 }

// chain leaves g_j for n-byte outputs in g0, g1 and reports whether that
// shape is short.
func (d *Deriver) chain(n int) bool {
	short := 0
	if n <= 16 {
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
	return short == 1
}

// XORPad XORs len(dst) oracle bytes for the query (header, index, data)
// into dst. len(data) must be the Deriver's dataLen.
func (d *Deriver) XORPad(dst, data []byte) {
	if len(data) != d.dataLen {
		panic(fmt.Sprintf("prg: Deriver data is %d bytes, header says %d", len(data), d.dataLen))
	}
	d.pads(dst, len(dst), data, nil)
}

// XORPads XORs the pads of N queries that differ only in their data,
// (header, index, row XOR mask_v) for v < N, into dst: masks holds the N
// masks back to back and dst the N pads, len(dst)/N bytes each, pad v at
// offset v*len(dst)/N. len(row) must be the Deriver's dataLen, not 0.
func (d *Deriver) XORPads(dst, row, masks []byte) {
	cands := 0
	if len(row) != 0 {
		cands = len(masks) / len(row)
	}
	if len(row) != d.dataLen || cands == 0 || cands*len(row) != len(masks) || len(dst)%cands != 0 {
		panic(fmt.Sprintf("prg: %d pad bytes, %d mask bytes for a %d-byte row, header says %d", len(dst), len(masks), len(row), d.dataLen))
	}
	d.pads(dst, len(dst)/cands, row, masks)
}

// pads XORs into dst, n bytes each, the pads of the queries whose data are
// row XOR the masks in turn, or row alone when masks is nil: four
// candidates in lockstep, one permutation call per data block.
func (d *Deriver) pads(dst []byte, n int, row, masks []byte) {
	short := d.chain(n)
	w := d.dataLen
	cands := 1
	if masks != nil {
		cands = len(masks) / w
	}
	for v0 := 0; v0 < cands; v0 += 4 {
		k := min(4, cands-v0)
		var c [4][2]uint64
		for l := range c[:k] {
			c[l] = [2]uint64{d.g0, d.g1}
		}
		// Data blocks, the last one zero-padded.
		for off := 0; off < w; off += 16 {
			r0, r1 := loadBlock(row[off:])
			for l := range c[:k] {
				b0, b1 := r0, r1
				if masks != nil {
					m0, m1 := loadBlock(masks[(v0+l)*w+off : (v0+l+1)*w])
					b0, b1 = b0^m0, b1^m1
				}
				c[l][0] ^= b0
				c[l][1] ^= b1
				d.lanes.put(l, c[l][0], c[l][1])
			}
			d.perm.Encrypt(&d.lanes, k)
			for l := range c[:k] {
				e0, e1 := d.lanes.get(l)
				c[l][0] ^= e0
				c[l][1] ^= e1
			}
		}
		out := dst[v0*n : (v0+k)*n]
		if short {
			for l := range c[:k] {
				xorBlock(out[l*n:(l+1)*n], c[l][0], c[l][1])
			}
			continue
		}
		d.expand(out, n, c[:k])
	}
}

// expand XORs into dst, n bytes each, the expansions of the chaining
// values c: block i of pad v is pi(c_v XOR tau_i) XOR c_v, four blocks
// per permutation call whichever pads they belong to.
func (d *Deriver) expand(dst []byte, n int, c [][2]uint64) {
	blocks := (n + 15) / 16
	total := len(c) * blocks
	for t0 := 0; t0 < total; t0 += 4 {
		k := min(4, total-t0)
		for l := 0; l < k; l++ {
			v, i := (t0+l)/blocks, (t0+l)%blocks
			d.lanes.put(l, c[v][0]^uint64(i), c[v][1]^0xEE<<56)
		}
		d.perm.Encrypt(&d.lanes, k)
		for l := 0; l < k; l++ {
			v, i := (t0+l)/blocks, (t0+l)%blocks
			e0, e1 := d.lanes.get(l)
			xorBlock(dst[v*n+i*16:(v+1)*n], e0^c[v][0], e1^c[v][1])
		}
	}
}

// loadBlock returns the first 16 bytes of b, zero-padded, as two
// little-endian words.
func loadBlock(b []byte) (uint64, uint64) {
	switch {
	case len(b) >= 16:
		return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
	case len(b) >= 8:
		return binary.LittleEndian.Uint64(b), loadWord(b[8:])
	}
	return loadWord(b), 0
}

// loadWord returns b, shorter than 8 bytes, as a zero-padded
// little-endian word.
func loadWord(b []byte) uint64 {
	var w uint64
	for k, c := range b {
		w |= uint64(c) << (8 * uint(k))
	}
	return w
}

// xorBlock XORs the first min(len(dst), 16) bytes of the block (e0, e1)
// into dst: whole words where they fit, then a half word, then bytes.
func xorBlock(dst []byte, e0, e1 uint64) {
	if len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^e0)
		if len(dst) >= 16 {
			binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(dst[8:])^e1)
			return
		}
		dst, e0 = dst[8:], e1
	}
	if len(dst) >= 4 {
		binary.LittleEndian.PutUint32(dst, binary.LittleEndian.Uint32(dst)^uint32(e0))
		dst, e0 = dst[4:], e0>>32
	}
	for k := range dst {
		dst[k] ^= byte(e0 >> (8 * uint(k)))
	}
}
