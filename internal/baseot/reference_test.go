package baseot

import (
	"crypto/elliptic"
	"fmt"
	"math/big"

	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// The base-OT loops as they stood before the one-multiplication sender
// and the derive-before-receive receiver: two ScalarMults per OT on the
// sender, the receiver's keys derived after the ciphertext flight, a
// heap buffer per key. Frozen here, verbatim but for the names, as the
// byte-level reference the rewritten Send and Receive are held to
// (TestMatchesReference, FuzzSendMatchesReference). It keeps its own
// curve and oracle, so a test that swaps the package's curve does not
// change what the reference computes and a changed domain label shows.

var (
	referenceCurve  = elliptic.P256()
	referenceOracle = prg.NewOracle("baseot/chou-orlandi")
)

func referenceSend(conn transport.Conn, pairs [][2]Msg, rng *prg.PRG) error {
	curve := referenceCurve
	n := len(pairs)
	// Sender secret a, announce A = aG.
	a := referenceRandScalar(rng)
	ax, ay := curve.ScalarBaseMult(a.Bytes())
	if err := conn.Send(elliptic.Marshal(curve, ax, ay)); err != nil {
		return fmt.Errorf("baseot: send A: %w", err)
	}
	// Receive all B_i in one message.
	raw, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("baseot: recv B: %w", err)
	}
	ptLen := referencePointLen()
	if len(raw) != n*ptLen {
		return fmt.Errorf("baseot: expected %d B-points (%d bytes), got %d bytes", n, n*ptLen, len(raw))
	}
	// For each i: k0 = H(i, a*B_i), k1 = H(i, a*(B_i - A)).
	// Negate A once for the subtraction.
	negAy := new(big.Int).Sub(curve.Params().P, ay)
	out := make([]byte, 0, n*2*MsgSize)
	for i := 0; i < n; i++ {
		bx, by := elliptic.Unmarshal(curve, raw[i*ptLen:(i+1)*ptLen])
		if bx == nil {
			return fmt.Errorf("baseot: invalid point for OT %d", i)
		}
		k0x, k0y := curve.ScalarMult(bx, by, a.Bytes())
		dx, dy := curve.Add(bx, by, ax, negAy)
		k1x, k1y := curve.ScalarMult(dx, dy, a.Bytes())
		k0 := referenceDeriveKey(uint64(i), 0, k0x, k0y)
		k1 := referenceDeriveKey(uint64(i), 1, k1x, k1y)
		var c0, c1 Msg
		prg.XORBytes(c0[:], pairs[i][0][:], k0[:])
		prg.XORBytes(c1[:], pairs[i][1][:], k1[:])
		out = append(out, c0[:]...)
		out = append(out, c1[:]...)
	}
	if err := conn.Send(out); err != nil {
		return fmt.Errorf("baseot: send ciphertexts: %w", err)
	}
	return nil
}

func referenceReceive(conn transport.Conn, choices []byte, rng *prg.PRG) ([]Msg, error) {
	curve := referenceCurve
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
	scalars := make([]*big.Int, n)
	buf := make([]byte, 0, n*referencePointLen())
	for i := 0; i < n; i++ {
		b := referenceRandScalar(rng)
		scalars[i] = b
		bx, by := curve.ScalarBaseMult(b.Bytes())
		if choices[i]&1 == 1 {
			bx, by = curve.Add(bx, by, ax, ay)
		}
		buf = append(buf, elliptic.Marshal(curve, bx, by)...)
	}
	if err := conn.Send(buf); err != nil {
		return nil, fmt.Errorf("baseot: send B: %w", err)
	}
	cts, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("baseot: recv ciphertexts: %w", err)
	}
	if len(cts) != n*2*MsgSize {
		return nil, fmt.Errorf("baseot: expected %d ciphertext bytes, got %d", n*2*MsgSize, len(cts))
	}
	out := make([]Msg, n)
	for i := 0; i < n; i++ {
		// k_c = H(i, b_i * A).
		kx, ky := curve.ScalarMult(ax, ay, scalars[i].Bytes())
		k := referenceDeriveKey(uint64(i), uint64(choices[i]&1), kx, ky)
		ct := cts[i*2*MsgSize+int(choices[i]&1)*MsgSize:][:MsgSize]
		prg.XORBytes(out[i][:], ct, k[:])
	}
	return out, nil
}

func referencePointLen() int {
	return 1 + 2*((referenceCurve.Params().BitSize+7)/8) // uncompressed marshal
}

func referenceDeriveKey(index, branch uint64, x, y *big.Int) Msg {
	data := make([]byte, 0, 64)
	data = append(data, x.Bytes()...)
	data = append(data, y.Bytes()...)
	blk := referenceOracle.Block(0, index, branch, data)
	return Msg(blk)
}

func referenceRandScalar(rng *prg.PRG) *big.Int {
	nOrder := referenceCurve.Params().N
	byteLen := (nOrder.BitLen() + 7) / 8
	for {
		b := rng.Bytes(byteLen)
		k := new(big.Int).SetBytes(b)
		if k.Sign() > 0 && k.Cmp(nOrder) < 0 {
			return k
		}
	}
}
