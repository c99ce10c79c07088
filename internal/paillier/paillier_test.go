package paillier

import (
	"bytes"
	"math/big"
	"testing"

	"abnn2/internal/prg"
)

// testKey generates a small deterministic key once for the whole package.
var testKey = mustKey()

func mustKey() *PrivateKey {
	sk, err := GenerateKey(prg.New(prg.SeedFromInt(1)), 512)
	if err != nil {
		panic(err)
	}
	return sk
}

func TestEncryptDecrypt(t *testing.T) {
	rng := prg.New(prg.SeedFromInt(2))
	pk := &testKey.PublicKey
	for _, m := range []int64{0, 1, 42, 1 << 40} {
		ct, err := pk.Encrypt(rng, big.NewInt(m))
		if err != nil {
			t.Fatalf("encrypt %d: %v", m, err)
		}
		if got := testKey.Decrypt(ct); got.Int64() != m {
			t.Fatalf("decrypt = %v, want %d", got, m)
		}
	}
}

func TestEncryptRejectsOutOfRange(t *testing.T) {
	rng := prg.New(prg.SeedFromInt(3))
	pk := &testKey.PublicKey
	if _, err := pk.Encrypt(rng, big.NewInt(-1)); err == nil {
		t.Error("negative plaintext accepted")
	}
	if _, err := pk.Encrypt(rng, pk.N); err == nil {
		t.Error("plaintext = N accepted")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	rng := prg.New(prg.SeedFromInt(4))
	pk := &testKey.PublicKey
	a, _ := pk.Encrypt(rng, big.NewInt(1000))
	b, _ := pk.Encrypt(rng, big.NewInt(234))
	if got := testKey.Decrypt(pk.Add(a, b)); got.Int64() != 1234 {
		t.Fatalf("add = %v", got)
	}
	if got := testKey.Decrypt(pk.AddPlain(a, big.NewInt(9))); got.Int64() != 1009 {
		t.Fatalf("addplain = %v", got)
	}
}

func TestHomomorphicMulConst(t *testing.T) {
	rng := prg.New(prg.SeedFromInt(5))
	pk := &testKey.PublicKey
	a, _ := pk.Encrypt(rng, big.NewInt(77))
	if got := testKey.Decrypt(pk.MulConst(a, big.NewInt(13))); got.Int64() != 1001 {
		t.Fatalf("mulconst = %v", got)
	}
	// Negative constants wrap mod N: Dec = N - 77*2.
	neg := testKey.Decrypt(pk.MulConst(a, big.NewInt(-2)))
	want := new(big.Int).Sub(pk.N, big.NewInt(154))
	if neg.Cmp(want) != 0 {
		t.Fatalf("negative mulconst = %v", neg)
	}
}

// The MiniONN offline pattern: server evaluates w.r - u homomorphically.
func TestDotProductFlow(t *testing.T) {
	rng := prg.New(prg.SeedFromInt(6))
	pk := &testKey.PublicKey
	r := []int64{3, 5, 7}
	w := []int64{2, -1, 4}
	cts := make([]*Ciphertext, len(r))
	for i := range r {
		cts[i], _ = pk.Encrypt(rng, big.NewInt(r[i]))
	}
	u := int64(999)
	acc := pk.AddPlain(pk.MulConst(cts[0], big.NewInt(w[0])), big.NewInt(-u))
	for i := 1; i < len(r); i++ {
		acc = pk.Add(acc, pk.MulConst(cts[i], big.NewInt(w[i])))
	}
	got := testKey.Decrypt(acc)
	// 6 - 5 + 28 - 999 = -970 mod N.
	want := new(big.Int).Mod(big.NewInt(-970), pk.N)
	if got.Cmp(want) != 0 {
		t.Fatalf("dot flow = %v, want %v", got, want)
	}
}

func TestCiphertextMarshalRoundTrip(t *testing.T) {
	rng := prg.New(prg.SeedFromInt(7))
	pk := &testKey.PublicKey
	ct, _ := pk.Encrypt(rng, big.NewInt(31337))
	raw := pk.Marshal(ct)
	if len(raw) != pk.CiphertextBytes() {
		t.Fatalf("marshal length %d", len(raw))
	}
	ct2, err := pk.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if testKey.Decrypt(ct2).Int64() != 31337 {
		t.Fatal("roundtrip decrypt failed")
	}
	if _, err := pk.Unmarshal(raw[:len(raw)-1]); err == nil {
		t.Error("short ciphertext accepted")
	}
}

func TestPublicKeyMarshal(t *testing.T) {
	pk := &testKey.PublicKey
	pk2, err := UnmarshalPublicKey(MarshalPublicKey(pk))
	if err != nil {
		t.Fatal(err)
	}
	if pk2.N.Cmp(pk.N) != 0 || pk2.N2.Cmp(pk.N2) != 0 {
		t.Fatal("public key roundtrip mismatch")
	}
}

// The modulus arrives from the peer, and everything after it is
// arithmetic modulo its square: its size is bounded on the byte length,
// at both ends of [MinModulusBits, MaxModulusBits].
func TestUnmarshalPublicKeyBoundsModulus(t *testing.T) {
	modulus := func(n int) []byte { return bytes.Repeat([]byte{0xff}, n) }
	for _, n := range []int{0, 1, MinModulusBits/8 - 1, MaxModulusBits/8 + 1, 8192 / 8} {
		if _, err := UnmarshalPublicKey(modulus(n)); err == nil {
			t.Errorf("modulus of %d bytes accepted", n)
		}
	}
	for _, n := range []int{MinModulusBits / 8, MaxModulusBits / 8} {
		if _, err := UnmarshalPublicKey(modulus(n)); err != nil {
			t.Errorf("modulus of %d bytes refused: %v", n, err)
		}
	}
	// In-range bytes, out-of-range number: leading zeros do not count.
	small := make([]byte, MinModulusBits/8)
	small[len(small)-1] = 3
	if _, err := UnmarshalPublicKey(small); err == nil {
		t.Error("a 2-bit modulus padded to 32 bytes accepted")
	}
}

func TestDeterministicKeygen(t *testing.T) {
	a, err := GenerateKey(prg.New(prg.SeedFromInt(9)), 256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateKey(prg.New(prg.SeedFromInt(9)), 256)
	if err != nil {
		t.Fatal(err)
	}
	if a.N.Cmp(b.N) != 0 {
		t.Error("same seed produced different keys")
	}
}

func TestGenerateKeyRejectsTinyModulus(t *testing.T) {
	if _, err := GenerateKey(prg.New(prg.SeedFromInt(10)), 64); err == nil {
		t.Error("64-bit modulus accepted")
	}
}
