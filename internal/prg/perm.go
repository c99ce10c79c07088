package prg

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// Perm is a fixed-key AES-128 permutation evaluated on up to eight
// independent blocks per call. One AES block costs about as much as eight
// interleaved ones, because a single block waits out each round's
// latency; callers that hold independent blocks (the N candidate pads of
// an OT, the four hashes of an AND gate) hand them over together.
//
// On amd64 with AES-NI a Perm from NewPerm runs an assembly kernel that
// interleaves the lanes per round key; everywhere else, and for a Perm
// that wraps a caller's cipher.Block, it calls Encrypt once per block.
// Both paths compute exactly the blocks crypto/aes computes. A Perm is
// safe for concurrent use.
type Perm struct {
	block  cipher.Block
	kernel bool          // rk holds the expanded key and the kernel runs
	rk     [11 * 16]byte // round keys, for the kernel
}

// Lanes holds a Perm call's blocks, encrypted in place. Callers keep it
// in state that is already on the heap: the portable path hands the lanes
// to a cipher.Block, through which a stack buffer would escape.
type Lanes [8][16]byte

// NewPerm returns AES-128 under key, which must be 16 bytes.
func NewPerm(key []byte) *Perm {
	blk, err := aes.NewCipher(key)
	if err != nil || len(key) != 16 {
		panic(fmt.Sprintf("prg: %d-byte key for AES-128", len(key)))
	}
	p := &Perm{block: blk, kernel: haveKernel}
	if p.kernel {
		expandKey((*[16]byte)(key), &p.rk)
	}
	return p
}

// WrapBlock returns the permutation b computes, evaluated one Encrypt call
// per block, so that a test can count the blocks.
func WrapBlock(b cipher.Block) *Perm { return &Perm{block: b} }

// Encrypt encrypts l[:n] in place, n from 1 to 8. It may overwrite the
// lanes past n.
func (p *Perm) Encrypt(l *Lanes, n int) {
	if p.kernel {
		encryptKernel(&p.rk, l, n)
		return
	}
	p.portable(l, n)
}

// portable is Encrypt through crypto/cipher.
func (p *Perm) portable(l *Lanes, n int) {
	for i := range l[:n] {
		p.block.Encrypt(l[i][:], l[i][:])
	}
}

// put stores the block (w0, w1), as two little-endian words, in lane i.
func (l *Lanes) put(i int, w0, w1 uint64) {
	binary.LittleEndian.PutUint64(l[i][0:], w0)
	binary.LittleEndian.PutUint64(l[i][8:], w1)
}

// get returns lane i as two little-endian words.
func (l *Lanes) get(i int) (uint64, uint64) {
	return binary.LittleEndian.Uint64(l[i][0:]), binary.LittleEndian.Uint64(l[i][8:])
}

// RoundKeys returns the expanded key for a caller's own AES-NI kernel, or
// nil where Encrypt takes the portable path: off amd64, on a CPU without
// AES-NI, and for a Perm from WrapBlock.
func (p *Perm) RoundKeys() *[11 * 16]byte {
	if !p.kernel {
		return nil
	}
	return &p.rk
}
