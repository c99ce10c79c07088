package paillier

import (
	"math/big"
	"testing"

	"abnn2/internal/prg"
)

// FuzzUnmarshalCiphertext checks the contract the MiniONN baseline's
// server phase relies on: any byte string Unmarshal accepts must survive
// the full homomorphic pipeline — including MulConst with a negative
// constant, whose modular inversion is only defined for units — and
// decrypt to something, without panicking.
func FuzzUnmarshalCiphertext(f *testing.F) {
	sk := testKey
	pk := &sk.PublicKey
	rng := prg.New(prg.SeedFromInt(99))
	for _, m := range []int64{0, 1, 1234, 1 << 40} {
		ct, err := pk.Encrypt(rng, big.NewInt(m))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pk.Marshal(ct))
	}
	threeN := new(big.Int).Mul(pk.N, big.NewInt(3))
	f.Add(make([]byte, pk.CiphertextBytes()))                   // zero: not a unit
	f.Add(pk.N.FillBytes(make([]byte, pk.CiphertextBytes())))   // multiple of N
	f.Add(threeN.FillBytes(make([]byte, pk.CiphertextBytes()))) // a larger multiple
	f.Add(pk.N2.FillBytes(make([]byte, pk.CiphertextBytes())))  // out of range
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := pk.Unmarshal(data)
		if err != nil {
			return
		}
		out := pk.MulConst(ct, big.NewInt(-3))
		out = pk.AddPlain(out, big.NewInt(41))
		sk.Decrypt(out)
	})
}

// The hardening regression for the remotely-reachable MulConst panic:
// non-units must be stopped at the parsing boundary.
func TestUnmarshalRejectsNonUnits(t *testing.T) {
	pk := &testKey.PublicKey
	if _, err := pk.Unmarshal(make([]byte, pk.CiphertextBytes())); err == nil {
		t.Error("zero ciphertext accepted")
	}
	nBytes := pk.N.FillBytes(make([]byte, pk.CiphertextBytes()))
	if _, err := pk.Unmarshal(nBytes); err == nil {
		t.Error("ciphertext N (shares every factor of the modulus) accepted")
	}
	rng := prg.New(prg.SeedFromInt(100))
	ct, err := pk.Encrypt(rng, big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pk.Unmarshal(pk.Marshal(ct)); err != nil {
		t.Errorf("valid ciphertext rejected: %v", err)
	}
}
