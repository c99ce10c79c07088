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
	out := make([]byte, n)
	d.XORPadsRun(out, n, index, data, nil)
	return out
}

// Deriver evaluates a FastOracle over one block of OTs: it is made for
// what the block's queries share, and XORPadsRun derives the pads of a
// run of its OTs. g_blk depends on the output shape, which only the pad
// call learns, so the first run of a shape computes it: one AES call per
// shape per Deriver, then one per OT for g_j, and then a pad costs its
// data blocks (and its expansion when n > 16). The output is exactly
// FastOracle.Hash of the same query.
//
// Independent blocks go to the permutation together. On amd64 with
// AES-NI a run over 16- or 24-byte rows whose pads are short, or long
// and a whole number of blocks, takes the pad kernel: eight lanes per
// call, a lane being one candidate of one OT, and the index, data,
// expansion and feed-forward steps of all eight done in registers.
// Everything else takes the portable path, one OT at a time: its N
// candidates absorb each data block in one call per four candidates, and
// expansion blocks, of one pad or of several, go eight per call. Chaining
// values are two little-endian words, so absorbing and expanding are word
// XORs around the AES call. One Deriver serves one goroutine.
type Deriver struct {
	perm          *Perm
	session, meta uint64 // meta: the header word with short clear
	dataLen       int    // data length the header commits to
	blk           [2][2]uint64
	blkOK         [2]bool // blk[short] holds g_blk
	lanes         Lanes
	run           padRun
}

// padRun is what the pad kernel reads of a run: g_blk, how many 8-lane
// groups there are and how far each moves through rows, dst and the
// indices, and for every lane its OT within the group and the offsets of
// its row and mask. Every field is a word, at the offset perm_amd64.s
// names it by.
type padRun struct {
	g              [2]uint64
	groups, blocks uint64 // blocks: data blocks per row, 1 or 2
	n              uint64 // pad bytes
	rowStep        uint64
	dstStep        uint64
	otStep         uint64
	usedBytes      uint64 // 16 per lane written out
	lane           [8]struct{ ot, row, mask uint64 }
}

// zeroMask is the kernel's mask when a run has none: one 24-byte row's.
var zeroMask [24]byte

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
	return Deriver{perm: p, session: session, meta: tweak<<32 | uint64(dataLen)<<1, dataLen: dataLen}
}

// absorb returns the chaining value pi(h XOR b) XOR h XOR b.
func (d *Deriver) absorb(h0, h1, b0, b1 uint64) (uint64, uint64) {
	x0, x1 := h0^b0, h1^b1
	d.lanes.put(0, x0, x1)
	d.perm.Encrypt(&d.lanes, 1)
	e0, e1 := d.lanes.get(0)
	return e0 ^ x0, e1 ^ x1
}

// header returns g_blk for the output shape.
func (d *Deriver) header(short int) (uint64, uint64) {
	if !d.blkOK[short] {
		d.blk[short][0], d.blk[short][1] = d.absorb(0, 0, d.session, d.meta|uint64(short))
		d.blkOK[short] = true
	}
	return d.blk[short][0], d.blk[short][1]
}

// XORPadsRun XORs into dst the n-byte pads of a run of k OTs whose
// indices are first, first+1, ... (mod 2^64) and whose rows lie back to
// back in rows, dataLen bytes each. OT i's queries are (header, first+i,
// row_i XOR mask_v) for the cands masks held back to back in masks, or
// the single query (header, first+i, row_i) when masks is nil. Pads are
// OT-major: candidate v of OT i is at dst[(i*cands+v)*n:], so k is
// len(dst)/(cands*n).
func (d *Deriver) XORPadsRun(dst []byte, n int, first uint64, rows, masks []byte) {
	w, cands := d.dataLen, 1
	if masks != nil && w != 0 {
		cands = len(masks) / w
	}
	if n < 1 || cands < 1 || masks != nil && (w == 0 || cands*w != len(masks)) ||
		len(dst)%(cands*n) != 0 || len(rows) != len(dst)/(cands*n)*w {
		panic(fmt.Sprintf("prg: %d pad bytes of %d, %d row bytes, %d mask bytes, header says %d", len(dst), n, len(rows), len(masks), w))
	}
	k := len(dst) / (cands * n)
	if k == 0 {
		return
	}
	short := 0
	if n <= 16 {
		short = 1
	}
	g0, g1 := d.header(short)
	i := 0
	if ots := 8 / cands; d.perm.kernel && (short == 1 || n%16 == 0) && (w == 16 || w == 24) && ots > 0 && k >= ots {
		i = d.kernelRun(dst, n, first, rows, masks, cands, ots, short, k)
	}
	for ; i < k; i++ {
		c0, c1 := d.absorb(g0, g1, first+uint64(i), 0)
		d.pads(dst[i*cands*n:(i+1)*cands*n], n, cands, c0, c1, rows[i*w:(i+1)*w], masks)
	}
}

// kernelRun derives the pads of the whole groups of a run through the pad
// kernel, ots OTs to a group, and returns how many OTs it did.
func (d *Deriver) kernelRun(dst []byte, n int, first uint64, rows, masks []byte, cands, ots, short, k int) int {
	w := d.dataLen
	r := &d.run
	r.g = d.blk[short]
	r.groups, r.blocks, r.n = uint64(k/ots), uint64(w+15)/16, uint64(n)
	r.rowStep, r.dstStep, r.otStep = uint64(ots*w), uint64(ots*cands*n), uint64(ots)
	r.usedBytes = uint64(16 * ots * cands)
	if masks == nil {
		masks = zeroMask[:]
	}
	for l := range r.lane {
		i, v := l/cands, l%cands
		if i >= ots { // an unused lane: any in-bounds inputs do
			i, v = 0, 0
		}
		r.lane[l] = struct{ ot, row, mask uint64 }{uint64(i), uint64(i * w), uint64(v * w)}
	}
	padKernel(&d.perm.rk, r, &rows[0], &masks[0], &dst[0], first)
	return k / ots * ots
}

// pads XORs into dst, n bytes each, the pads of one OT's cands queries
// from its g_j (g0, g1): the data are row XOR the masks in turn, or row
// alone when masks is nil, four candidates in lockstep, one permutation
// call per data block.
func (d *Deriver) pads(dst []byte, n, cands int, g0, g1 uint64, row, masks []byte) {
	w := d.dataLen
	for v0 := 0; v0 < cands; v0 += 4 {
		k := min(4, cands-v0)
		var c [4][2]uint64
		for l := range c[:k] {
			c[l] = [2]uint64{g0, g1}
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
		if n <= 16 {
			for l := range c[:k] {
				xorBlock(out[l*n:(l+1)*n], c[l][0], c[l][1])
			}
			continue
		}
		d.expand(out, n, c[:k])
	}
}

// expand XORs into dst, n bytes each, the expansions of the chaining
// values c: block i of pad v is pi(c_v XOR tau_i) XOR c_v, eight blocks
// per permutation call whichever pads they belong to.
func (d *Deriver) expand(dst []byte, n int, c [][2]uint64) {
	blocks := (n + 15) / 16
	total := len(c) * blocks
	for t0 := 0; t0 < total; t0 += 8 {
		k := min(8, total-t0)
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
