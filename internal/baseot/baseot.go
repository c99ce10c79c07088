// Package baseot implements the "simplest OT" protocol of Chou and
// Orlandi over the NIST P-256 curve. These base oblivious transfers are
// the public-key bootstrap for the OT extensions in internal/otext: a
// batch of kappa (for KK13, between kappa and 2*kappa: one per column of
// the code the scheme's N needs) base OTs is run once per session and all
// subsequent transfers use only symmetric-key operations.
//
// A batch of n OTs costs the sender n+1 variable-point multiplications
// and the receiver n, and the receiver's run beside the sender's: see
// DESIGN.md, "Session set-up".
//
// Security is against semi-honest adversaries, the model of the paper.
package baseot

import (
	"bytes"
	"crypto/elliptic"
	"fmt"
	"math/big"

	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// MsgSize is the base-OT payload size: 16 bytes, exactly one PRG seed.
// Base OTs only ever transfer seeds; longer payloads use OT extension.
const MsgSize = prg.SeedSize

// Msg is one base-OT message: the seed of an OT-extension column.
type Msg = prg.Seed

var oracle = prg.NewOracle("baseot/chou-orlandi")

// curve is the group; P-256 gives > 128-bit security matching kappa. It
// is a variable only so that the operation-count test can wrap it.
var curve = elliptic.P256()

const (
	coordLen = 32             // a P-256 field element or scalar, big-endian
	pointLen = 1 + 2*coordLen // uncompressed SEC1: 0x04 || x || y
)

// order is the group order as a fixed-width big-endian string.
var order = curve.Params().N.FillBytes(make([]byte, coordLen))

// Send runs the sender side of a batch of len(pairs) base OTs over conn.
// pairs[i][b] is delivered if the receiver's i-th choice bit is b.
func Send(conn transport.Conn, pairs [][2]Msg, rng *prg.PRG) error {
	n := len(pairs)
	// Sender secret a, announce A = aG.
	var a [coordLen]byte
	randScalar(rng, &a)
	ax, ay := curve.ScalarBaseMult(a[:])
	if err := conn.Send(elliptic.Marshal(curve, ax, ay)); err != nil {
		return fmt.Errorf("baseot: send A: %w", err)
	}
	// Receive all B_i in one message.
	raw, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("baseot: recv B: %w", err)
	}
	if len(raw) != n*pointLen {
		return fmt.Errorf("baseot: expected %d B-points (%d bytes), got %d bytes", n, n*pointLen, len(raw))
	}
	// For each i: k0 = H(i, a*B_i), k1 = H(i, a*(B_i - A)). The second
	// point is a*B_i - a*A, and T = -(a*A) is the same for the whole
	// batch, so an OT costs one multiplication and one addition. a*A is
	// never the identity (the group order is prime and 0 < a < order).
	tx, ty := curve.ScalarMult(ax, ay, a[:])
	ty.Sub(curve.Params().P, ty)
	out := make([]byte, n*2*MsgSize)
	scratch := make([]byte, 2*coordLen)
	for i := 0; i < n; i++ {
		bx, by := elliptic.Unmarshal(curve, raw[i*pointLen:(i+1)*pointLen])
		if bx == nil {
			return fmt.Errorf("baseot: invalid point for OT %d", i)
		}
		k0x, k0y := curve.ScalarMult(bx, by, a[:])
		k1x, k1y := curve.Add(k0x, k0y, tx, ty)
		k0 := deriveKey(scratch, i, 0, k0x, k0y)
		k1 := deriveKey(scratch, i, 1, k1x, k1y)
		c := out[i*2*MsgSize : (i+1)*2*MsgSize]
		prg.XORBytes(c[:MsgSize], pairs[i][0][:], k0[:])
		prg.XORBytes(c[MsgSize:], pairs[i][1][:], k1[:])
	}
	if err := conn.Send(out); err != nil {
		return fmt.Errorf("baseot: send ciphertexts: %w", err)
	}
	return nil
}

// Receive runs the receiver side for the given choice bits (one per OT,
// values 0 or 1) and returns the chosen messages.
func Receive(conn transport.Conn, choices []byte, rng *prg.PRG) ([]Msg, error) {
	n := len(choices)
	raw, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("baseot: recv A: %w", err)
	}
	ax, ay := elliptic.Unmarshal(curve, raw)
	if ax == nil {
		return nil, fmt.Errorf("baseot: invalid A point")
	}
	// For each OT choose b_i; B_i = b_i*G + c_i*A.
	scalars := make([][coordLen]byte, n)
	flight := make([]byte, n*pointLen)
	for i := 0; i < n; i++ {
		randScalar(rng, &scalars[i])
		bx, by := curve.ScalarBaseMult(scalars[i][:])
		if choices[i]&1 == 1 {
			bx, by = curve.Add(bx, by, ax, ay)
		}
		p := flight[i*pointLen : (i+1)*pointLen]
		p[0] = 4 // uncompressed
		bx.FillBytes(p[1 : 1+coordLen])
		by.FillBytes(p[1+coordLen:])
	}
	if err := conn.Send(flight); err != nil {
		return nil, fmt.Errorf("baseot: send B: %w", err)
	}
	// k_c = H(i, b_i * A) needs nothing the sender has yet to say, so the
	// keys are derived now, while the sender is deriving its own from the
	// flight just sent, and not after its ciphertexts arrive.
	out := make([]Msg, n)
	scratch := make([]byte, 2*coordLen)
	for i := range out {
		kx, ky := curve.ScalarMult(ax, ay, scalars[i][:])
		out[i] = deriveKey(scratch, i, int(choices[i]&1), kx, ky)
	}
	cts, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("baseot: recv ciphertexts: %w", err)
	}
	if len(cts) != n*2*MsgSize {
		return nil, fmt.Errorf("baseot: expected %d ciphertext bytes, got %d", n*2*MsgSize, len(cts))
	}
	for i := range out {
		ct := cts[i*2*MsgSize+int(choices[i]&1)*MsgSize:][:MsgSize]
		prg.XORBytes(out[i][:], out[i][:], ct)
	}
	return out, nil
}

// deriveKey hashes the point (x, y) into the key of OT index, branch 0
// or 1. The oracle input is x.Bytes() || y.Bytes(): each coordinate
// minimal big-endian, so one with a leading zero byte is shorter than
// coordLen and the identity (0, 0) hashes the empty string. That is the
// wire contract of protocol v1 (PROTOCOL.md section 0) — a fixed-width
// encoding would change about one key in 128. scratch holds the input;
// it is the caller's so that a batch allocates it once.
func deriveKey(scratch []byte, index, branch int, x, y *big.Int) Msg {
	xl, yl := (x.BitLen()+7)/8, (y.BitLen()+7)/8
	x.FillBytes(scratch[:xl])
	y.FillBytes(scratch[xl : xl+yl])
	return oracle.Block(0, uint64(index), uint64(branch), scratch[:xl+yl])
}

// randScalar sets k to a uniform scalar in [1, order) by rejection,
// drawing coordLen bytes of rng per attempt.
func randScalar(rng *prg.PRG, k *[coordLen]byte) {
	for {
		rng.Fill(k[:])
		if bytes.Compare(k[:], order) < 0 && *k != [coordLen]byte{} {
			return
		}
	}
}
