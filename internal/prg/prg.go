// Package prg provides the symmetric-key primitives the protocols are
// built from: an AES-CTR pseudorandom generator and two random oracles
// with explicit domain separation, the SHA-256 Oracle and the
// fixed-key-AES FastOracle that the OT-extension pads are drawn from.
//
// Protocol code never touches crypto/rand directly except through NewSeed;
// all other randomness is expanded from seeds so that tests and benchmarks
// are deterministic.
package prg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"abnn2/internal/ring"
)

// SeedSize is the PRG seed length in bytes (AES-128 key).
const SeedSize = 16

// Seed is a 128-bit PRG seed, matching the computational security parameter
// kappa = 128 used throughout the paper.
type Seed [SeedSize]byte

// NewSeed samples a fresh seed from the OS CSPRNG.
func NewSeed() Seed {
	var s Seed
	if _, err := rand.Read(s[:]); err != nil {
		// The OS CSPRNG failing is unrecoverable for a cryptographic
		// protocol; continuing silently would be a security bug.
		panic(fmt.Sprintf("prg: OS entropy unavailable: %v", err))
	}
	return s
}

// SeedFromInt derives a deterministic seed from an integer. For tests and
// reproducible benchmarks only.
func SeedFromInt(v uint64) Seed {
	var s Seed
	binary.LittleEndian.PutUint64(s[:8], v)
	s[8] = 0x5e // fixed tweak so SeedFromInt(0) != all-zero key
	return s
}

// PRG is a deterministic byte stream expanded from a Seed via AES-128-CTR.
// It is not safe for concurrent use.
type PRG struct {
	stream cipher.Stream
	word   [8]byte // Uint64's keystream operand; a local would escape through the Stream interface
	buf    []byte  // keystream scratch of Vec and Mat, grown on demand
}

// New returns a PRG expanding the given seed.
func New(seed Seed) *PRG {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		// aes.NewCipher only fails on bad key length, impossible here.
		panic(fmt.Sprintf("prg: %v", err))
	}
	var iv [aes.BlockSize]byte
	return &PRG{stream: cipher.NewCTR(block, iv[:])}
}

// Fill overwrites p with pseudorandom bytes.
func (g *PRG) Fill(p []byte) {
	clear(p)
	g.stream.XORKeyStream(p, p)
}

// Bytes returns n fresh pseudorandom bytes.
func (g *PRG) Bytes(n int) []byte {
	p := make([]byte, n)
	g.stream.XORKeyStream(p, p)
	return p
}

// Read implements io.Reader (never fails), so a PRG can drive stdlib
// consumers such as crypto/rand.Prime for deterministic key generation.
func (g *PRG) Read(p []byte) (int, error) {
	g.Fill(p)
	return len(p), nil
}

// Uint64 returns a pseudorandom 64-bit value.
func (g *PRG) Uint64() uint64 {
	g.word = [8]byte{}
	g.stream.XORKeyStream(g.word[:], g.word[:])
	return binary.LittleEndian.Uint64(g.word[:])
}

// Elem samples a uniform element of r.
func (g *PRG) Elem(r ring.Ring) ring.Elem {
	return g.Uint64() & r.Mask()
}

// Vec samples a uniform n-element vector over r.
func (g *PRG) Vec(r ring.Ring, n int) ring.Vec {
	v := make(ring.Vec, n)
	g.fillElems(r, v)
	return v
}

// Mat samples a uniform rows x cols matrix over r.
func (g *PRG) Mat(r ring.Ring, rows, cols int) *ring.Mat {
	m := ring.NewMat(rows, cols)
	g.fillElems(r, m.Data)
	return m
}

// fillElems sets every element of v to what Elem would return next. CTR
// keystream is a stream, so drawing it bulkBytes at a time yields the
// bytes of len(v) Uint64 calls and leaves the PRG in the same state.
func (g *PRG) fillElems(r ring.Ring, v []ring.Elem) {
	const bulkBytes = 8 << 10
	if need := min(len(v)*8, bulkBytes); cap(g.buf) < need {
		g.buf = make([]byte, need)
	}
	mask := r.Mask()
	for len(v) > 0 {
		buf := g.buf[:min(len(v)*8, bulkBytes)]
		g.Fill(buf)
		for i := 0; i < len(buf); i += 8 {
			v[i/8] = binary.LittleEndian.Uint64(buf[i:]) & mask
		}
		v = v[len(buf)/8:]
	}
}

// Intn returns a pseudorandom value in [0, n). n must be positive.
// Rejection sampling keeps the distribution exactly uniform.
func (g *PRG) Intn(n int) int {
	if n <= 0 {
		panic("prg: Intn with non-positive bound")
	}
	bound := uint64(n)
	limit := ^uint64(0) - ^uint64(0)%bound
	for {
		v := g.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

// Child derives an independent sub-PRG labelled by tag. Used to hand
// deterministic but distinct randomness to protocol sub-components.
func (g *PRG) Child(tag string) *PRG {
	var seed Seed
	material := g.Bytes(SeedSize)
	h := sha256.New()
	h.Write([]byte("prg-child"))
	h.Write([]byte(tag))
	h.Write(material)
	copy(seed[:], h.Sum(nil))
	return New(seed)
}
