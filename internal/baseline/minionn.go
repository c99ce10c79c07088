package baseline

import (
	"fmt"
	"math/big"

	"abnn2/internal/paillier"
	"abnn2/internal/par"
	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// MiniONN-style offline phase over additively homomorphic encryption:
// the client sends Enc(r_j) for its share vector(s); the server
// homomorphically evaluates W*r + mask and returns one ciphertext per
// output element; the parties' shares are (-mask mod 2^l, result mod 2^l).
// MiniONN uses SIMD lattice HE; Paillier exercises the same flow (same
// message pattern, same rounds) — see DESIGN.md.
//
// Exactness over Z_2^l: the server's mask is sampled from
// [2^G, 2^G + 2^{G+sigma}) with G large enough that w.r + mask never
// leaves (0, N), so no modular wrap occurs and reducing both shares mod
// 2^l yields exact additive shares of w.r.

// MiniONNKeyBits is the default Paillier modulus size. 1024 bits keeps
// the baseline's runtime workable while preserving the protocol shape;
// production use would take 2048+.
const MiniONNKeyBits = 1024

// statSigma is the statistical masking parameter.
const statSigma = 40

// MiniONNClient owns the HE keypair and the share matrix R.
type MiniONNClient struct {
	rg      ring.Ring
	conn    transport.Conn
	sk      *paillier.PrivateKey
	rng     *prg.PRG
	workers int
}

// MiniONNServer holds the weights.
type MiniONNServer struct {
	rg      ring.Ring
	conn    transport.Conn
	pk      *paillier.PublicKey
	rng     *prg.PRG
	workers int
}

// NewMiniONNClient generates a keypair and announces the public key;
// workers bounds the per-element encryptions and decryptions.
func NewMiniONNClient(conn transport.Conn, rg ring.Ring, keyBits, workers int, rng *prg.PRG) (*MiniONNClient, error) {
	sk, err := paillier.GenerateKey(rng, keyBits)
	if err != nil {
		return nil, fmt.Errorf("baseline: minionn keygen: %w", err)
	}
	if err := conn.Send(paillier.MarshalPublicKey(&sk.PublicKey)); err != nil {
		return nil, fmt.Errorf("baseline: minionn send pk: %w", err)
	}
	return &MiniONNClient{rg: rg, conn: conn, sk: sk, rng: rng, workers: workers}, nil
}

// NewMiniONNServer receives the client's public key; workers bounds the
// homomorphic product.
func NewMiniONNServer(conn transport.Conn, rg ring.Ring, workers int, rng *prg.PRG) (*MiniONNServer, error) {
	raw, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("baseline: minionn recv pk: %w", err)
	}
	pk, err := paillier.UnmarshalPublicKey(raw)
	if err != nil {
		return nil, err
	}
	return &MiniONNServer{rg: rg, conn: conn, pk: pk, rng: rng, workers: workers}, nil
}

// GenerateClient encrypts R (n x o) column by column, sends the
// ciphertexts, and decrypts the server's response into V (m x o).
// Encryption and decryption are parallelised up to workers; MiniONN's
// evaluation reports single-core numbers, but the protocol shape is
// unchanged and our benches report both wall and comm anyway.
func (c *MiniONNClient) GenerateClient(m int, R *ring.Mat) (*ring.Mat, error) {
	pk := &c.sk.PublicKey
	n, o := R.Rows, R.Cols
	ctBytes := pk.CiphertextBytes()
	// Encrypt all n*o share elements, each under its own child PRG, seeded
	// here in index order: a seeded transcript does not depend on how the
	// encryptions are scheduled.
	seeds := c.rng.Bytes(n * o * prg.SeedSize)
	msg := make([]byte, n*o*ctBytes)
	if err := forEach(c.workers, n*o, func(idx int) error {
		rng := prg.New(prg.Seed(seeds[idx*prg.SeedSize:]))
		ct, err := pk.Encrypt(rng, new(big.Int).SetUint64(R.Data[idx]))
		if err != nil {
			return err
		}
		copy(msg[idx*ctBytes:], pk.Marshal(ct))
		return nil
	}); err != nil {
		return nil, fmt.Errorf("baseline: minionn encrypt: %w", err)
	}
	if err := c.conn.Send(msg); err != nil {
		return nil, fmt.Errorf("baseline: minionn send ciphertexts: %w", err)
	}
	resp, err := c.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("baseline: minionn recv response: %w", err)
	}
	if len(resp) != m*o*ctBytes {
		return nil, fmt.Errorf("baseline: minionn response is %d bytes, want %d", len(resp), m*o*ctBytes)
	}
	V := ring.NewMat(m, o)
	if err := forEach(c.workers, m*o, func(idx int) error {
		ct, err := pk.Unmarshal(resp[idx*ctBytes : (idx+1)*ctBytes])
		if err != nil {
			return err
		}
		plain := c.sk.Decrypt(ct)
		V.Data[idx] = plain.Uint64() & c.rg.Mask() // low l bits are exact
		return nil
	}); err != nil {
		return nil, err
	}
	return V, nil
}

// GenerateServer homomorphically computes W*R + mask and returns the
// server share U = -mask mod 2^l (m x o).
func (s *MiniONNServer) GenerateServer(W []int64, m, n, o int) (*ring.Mat, error) {
	if len(W) != m*n {
		return nil, fmt.Errorf("baseline: W has %d elements, want %d", len(W), m*n)
	}
	pk := s.pk
	ctBytes := pk.CiphertextBytes()
	raw, err := s.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("baseline: minionn recv ciphertexts: %w", err)
	}
	if len(raw) != n*o*ctBytes {
		return nil, fmt.Errorf("baseline: minionn ciphertexts are %d bytes, want %d", len(raw), n*o*ctBytes)
	}
	cts := make([]*paillier.Ciphertext, n*o)
	if err := forEach(s.workers, n*o, func(idx int) error {
		ct, err := pk.Unmarshal(raw[idx*ctBytes : (idx+1)*ctBytes])
		if err != nil {
			return err
		}
		cts[idx] = ct
		return nil
	}); err != nil {
		return nil, err
	}
	// Mask window: |w.r| < n * 2^eta * 2^l; pick G with slack.
	gBits := uint(s.rg.Bits()) + 20 + statSigma
	base := new(big.Int).Lsh(big.NewInt(1), gBits)
	U := ring.NewMat(m, o)
	resp := make([]byte, m*o*ctBytes)
	masks := make([]*big.Int, m*o)
	// Sample masks serially (cheap) so randomness stays deterministic.
	for idx := range masks {
		r := new(big.Int).SetBytes(s.rng.Bytes(int(gBits) / 8))
		masks[idx] = r.Add(r, base)
	}
	if err := forEach(s.workers, m*o, func(idx int) error {
		i, k := idx/o, idx%o
		// acc = Enc(w_i0 * r_0k + mask), then fold the remaining terms.
		acc := pk.AddPlain(pk.MulConst(cts[0*o+k], big.NewInt(W[i*n+0])), masks[idx])
		for j := 1; j < n; j++ {
			acc = pk.Add(acc, pk.MulConst(cts[j*o+k], big.NewInt(W[i*n+j])))
		}
		copy(resp[idx*ctBytes:], pk.Marshal(acc))
		U.Data[idx] = s.rg.Neg(s.rg.Reduce(masks[idx].Uint64()))
		return nil
	}); err != nil {
		return nil, err
	}
	if err := s.conn.Send(resp); err != nil {
		return nil, fmt.Errorf("baseline: minionn send response: %w", err)
	}
	return U, nil
}

// chunksErr is par.ChunksErr, a variable so that the worker-bound test
// can count the chunk bodies in flight.
var chunksErr = par.ChunksErr

// forEach runs fn over [0, n) on the shared worker pool, at most workers
// chunks at a time, and returns the lowest-indexed chunk's error.
func forEach(workers, n int, fn func(idx int) error) error {
	return chunksErr(workers, n, func(_, lo, hi int) error {
		for idx := lo; idx < hi; idx++ {
			if err := fn(idx); err != nil {
				return err
			}
		}
		return nil
	})
}
