// Package paillier implements the Paillier additively homomorphic
// cryptosystem. It is the substrate for the MiniONN comparison baseline:
// MiniONN's offline phase has the client send encryptions of its random
// share r and the server homomorphically evaluate W*r - u. MiniONN uses a
// lattice SIMD scheme; any additively homomorphic encryption exercises
// the identical protocol flow (see DESIGN.md, "Substitutions").
package paillier

import (
	"fmt"
	"io"
	"math/big"
)

// PublicKey allows encryption and homomorphic operations.
type PublicKey struct {
	N  *big.Int // modulus
	N2 *big.Int // N^2, cached
}

// PrivateKey allows decryption.
type PrivateKey struct {
	PublicKey
	lambda *big.Int // lcm(p-1, q-1)
	mu     *big.Int // lambda^-1 mod N
}

// Ciphertext is a Paillier ciphertext (an element of Z_{N^2}^*).
type Ciphertext struct{ C *big.Int }

// The modulus sizes this package works with. One range bounds the key a
// party generates, the knob that sizes it (abnn2.Config.MiniONNKeyBits)
// and — the one that matters — the modulus a party accepts from its peer:
// every homomorphic operation afterwards is arithmetic modulo that
// number's square, so its size is the peer's say over this party's CPU.
const (
	MinModulusBits = 256
	MaxModulusBits = 4096
)

// GenerateKey creates a key pair with an n-bit modulus. randSrc supplies
// primality-candidate randomness; pass a seeded PRG for deterministic
// tests or crypto/rand.Reader for real keys.
func GenerateKey(randSrc io.Reader, bits int) (*PrivateKey, error) {
	if bits < MinModulusBits || bits > MaxModulusBits {
		return nil, fmt.Errorf("paillier: modulus of %d bits outside [%d,%d]", bits, MinModulusBits, MaxModulusBits)
	}
	for {
		p, err := genPrime(randSrc, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := genPrime(randSrc, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		p1 := new(big.Int).Sub(p, big.NewInt(1))
		q1 := new(big.Int).Sub(q, big.NewInt(1))
		gcd := new(big.Int).GCD(nil, nil, p1, q1)
		lambda := new(big.Int).Div(new(big.Int).Mul(p1, q1), gcd)
		mu := new(big.Int).ModInverse(lambda, n)
		if mu == nil {
			continue // lambda not invertible mod N; re-draw primes
		}
		return &PrivateKey{
			PublicKey: PublicKey{N: n, N2: new(big.Int).Mul(n, n)},
			lambda:    lambda,
			mu:        mu,
		}, nil
	}
}

// Encrypt encrypts m in [0, N) using randomness from randSrc. With
// generator g = N+1, Enc(m) = (1 + m*N) * r^N mod N^2.
func (pk *PublicKey) Encrypt(randSrc io.Reader, m *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("paillier: plaintext out of [0, N)")
	}
	r, err := randUnit(randSrc, pk.N)
	if err != nil {
		return nil, err
	}
	// (1 + m*N) mod N^2
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, big.NewInt(1))
	gm.Mod(gm, pk.N2)
	rn := new(big.Int).Exp(r, pk.N, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

// Decrypt recovers the plaintext: L(c^lambda mod N^2) * mu mod N, with
// L(x) = (x-1)/N.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) *big.Int {
	x := new(big.Int).Exp(ct.C, sk.lambda, sk.N2)
	x.Sub(x, big.NewInt(1))
	x.Div(x, sk.N)
	x.Mul(x, sk.mu)
	return x.Mod(x, sk.N)
}

// Add returns the encryption of the sum of the two plaintexts.
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	return &Ciphertext{C: c.Mod(c, pk.N2)}
}

// AddPlain returns Enc(m_a + k) without fresh randomness; callers must
// rerandomise (or fold in a random mask, as the MiniONN flow does) before
// the result leaves the party.
func (pk *PublicKey) AddPlain(a *Ciphertext, k *big.Int) *Ciphertext {
	gm := new(big.Int).Mul(new(big.Int).Mod(k, pk.N), pk.N)
	gm.Add(gm, big.NewInt(1))
	gm.Mod(gm, pk.N2)
	c := gm.Mul(gm, a.C)
	return &Ciphertext{C: c.Mod(c, pk.N2)}
}

// MulConst returns the encryption of k times the plaintext of a.
// Negative constants exponentiate by |k| and invert the result mod N^2:
// reducing k mod N instead would turn a small-weight multiplication into
// a full 1024-bit exponentiation (~200x slower), which dominates the
// MiniONN baseline's server phase.
func (pk *PublicKey) MulConst(a *Ciphertext, k *big.Int) *Ciphertext {
	if k.Sign() < 0 {
		abs := new(big.Int).Neg(k)
		c := new(big.Int).Exp(a.C, abs, pk.N2)
		if c.ModInverse(c, pk.N2) == nil {
			// A ciphertext is always a unit mod N^2 unless it shares a
			// factor with N, which would mean the modulus is factored.
			panic("paillier: non-invertible ciphertext")
		}
		return &Ciphertext{C: c}
	}
	return &Ciphertext{C: new(big.Int).Exp(a.C, k, pk.N2)}
}

// CiphertextBytes is the wire size of one ciphertext (2N bits).
func (pk *PublicKey) CiphertextBytes() int { return (pk.N2.BitLen() + 7) / 8 }

// Marshal serialises a ciphertext to fixed width.
func (pk *PublicKey) Marshal(ct *Ciphertext) []byte {
	return ct.C.FillBytes(make([]byte, pk.CiphertextBytes()))
}

// Unmarshal parses a fixed-width ciphertext. Beyond the range check it
// rejects non-units of Z_{N^2}: a valid ciphertext is always coprime to
// N, and a crafted non-unit (e.g. zero, or a multiple of a factor of N)
// would later make MulConst's modular inversion fail. The gcd costs
// microseconds against the milliseconds of the exponentiations that
// follow, so attacker-shaped bytes are cheap to screen here.
func (pk *PublicKey) Unmarshal(b []byte) (*Ciphertext, error) {
	if len(b) != pk.CiphertextBytes() {
		return nil, fmt.Errorf("paillier: ciphertext is %d bytes, want %d", len(b), pk.CiphertextBytes())
	}
	c := new(big.Int).SetBytes(b)
	if c.Cmp(pk.N2) >= 0 {
		return nil, fmt.Errorf("paillier: ciphertext out of range")
	}
	if new(big.Int).GCD(nil, nil, c, pk.N).Cmp(big.NewInt(1)) != 0 {
		return nil, fmt.Errorf("paillier: ciphertext is not a unit")
	}
	return &Ciphertext{C: c}, nil
}

// MarshalPublicKey serialises the modulus.
func MarshalPublicKey(pk *PublicKey) []byte { return pk.N.Bytes() }

// UnmarshalPublicKey parses a modulus received from the peer. The size is
// checked on the bytes, before they become a number and long before the
// number is squared. (The product of two primes of bits/2 bits may be one
// bit short of bits, hence the lower bound's -1.)
func UnmarshalPublicKey(b []byte) (*PublicKey, error) {
	if len(b) < MinModulusBits/8 || len(b) > MaxModulusBits/8 {
		return nil, fmt.Errorf("paillier: modulus of %d bytes outside [%d,%d] bits", len(b), MinModulusBits, MaxModulusBits)
	}
	n := new(big.Int).SetBytes(b)
	if n.BitLen() < MinModulusBits-1 {
		return nil, fmt.Errorf("paillier: modulus too small (%d bits)", n.BitLen())
	}
	return &PublicKey{N: n, N2: new(big.Int).Mul(n, n)}, nil
}

// genPrime draws random odd candidates of exactly `bits` bits from
// randSrc until one passes Miller-Rabin. Unlike crypto/rand.Prime it is
// fully deterministic for a deterministic reader (crypto/rand deliberately
// injects nondeterminism via randutil.MaybeReadByte), which the seeded
// benchmarks rely on.
func genPrime(randSrc io.Reader, bits int) (*big.Int, error) {
	bytes := (bits + 7) / 8
	buf := make([]byte, bytes)
	for {
		if _, err := io.ReadFull(randSrc, buf); err != nil {
			return nil, err
		}
		p := new(big.Int).SetBytes(buf)
		p.Rsh(p, uint(bytes*8-bits)) // trim to exactly `bits` bits
		p.SetBit(p, bits-1, 1)       // force exact bit length
		p.SetBit(p, 0, 1)            // force oddness
		if p.ProbablyPrime(20) {
			return p, nil
		}
	}
}

// randUnit samples r in [1, n) with gcd(r, n) = 1, deterministically for
// a deterministic reader (rejection sampling over full bytes).
func randUnit(randSrc io.Reader, n *big.Int) (*big.Int, error) {
	one := big.NewInt(1)
	buf := make([]byte, (n.BitLen()+7)/8)
	for {
		if _, err := io.ReadFull(randSrc, buf); err != nil {
			return nil, fmt.Errorf("paillier: sampling randomiser: %w", err)
		}
		r := new(big.Int).SetBytes(buf)
		if r.Sign() == 0 || r.Cmp(n) >= 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, n).Cmp(one) == 0 {
			return r, nil
		}
	}
}
