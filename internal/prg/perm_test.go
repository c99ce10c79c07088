package prg

import (
	"bytes"
	"crypto/aes"
	"testing"
)

// checkPerm encrypts in with every lane width through p's Encrypt and its
// portable path, and compares each block with crypto/aes under key.
func checkPerm(t *testing.T, key []byte, in Lanes) {
	t.Helper()
	ref, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	var want Lanes
	for i := range in {
		ref.Encrypt(want[i][:], in[i][:])
	}
	p := NewPerm(key)
	paths := map[string]func(*Lanes, int){"Encrypt": p.Encrypt, "portable": p.portable}
	for name, enc := range paths {
		for n := 1; n <= len(in); n++ {
			got := in
			enc(&got, n)
			for i := 0; i < n; i++ {
				if !bytes.Equal(got[i][:], want[i][:]) {
					t.Fatalf("%s with %d lanes: lane %d is %x, crypto/aes gives %x (key %x)", name, n, i, got[i], want[i], key)
				}
			}
		}
	}
}

// TestPermMatchesCipher holds the permutation, on every path the host
// has and at every lane width, to crypto/aes block by block: FIPS-197's
// appendix C.1 vector, all-zero and all-one keys and inputs, and random
// keys and lanes.
func TestPermMatchesCipher(t *testing.T) {
	var fips Lanes
	for i := range fips {
		for k := range fips[i] {
			fips[i][k] = byte(k<<4 | k)
		}
	}
	for _, tc := range []struct {
		name string
		key  []byte
		in   Lanes
	}{
		{"fips-197", []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, fips},
		{"zero", make([]byte, 16), Lanes{}},
		{"ones", bytes.Repeat([]byte{0xFF}, 16), Lanes{{0xFF, 0xFF}, {1}, {15: 1}, {7: 0x80}}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkPerm(t, tc.key, tc.in) })
	}
	g := New(SeedFromInt(61))
	for i := 0; i < 200; i++ {
		var in Lanes
		for l := range in {
			g.Fill(in[l][:])
		}
		checkPerm(t, g.Bytes(16), in)
	}
}

// TestPermKernelRuns: on a host with AES-NI, NewPerm takes the kernel, so
// the test above compared both paths and not the portable one twice; and
// NewPerm takes AES-128 keys only.
func TestPermKernelRuns(t *testing.T) {
	if NewPerm(make([]byte, 16)).kernel != haveKernel {
		t.Fatal("NewPerm does not take the kernel the host has")
	}
	if WrapBlock(NewPerm(make([]byte, 16)).block).kernel {
		t.Fatal("a wrapped cipher.Block runs the kernel")
	}
	t.Logf("AES kernel: %v", haveKernel)
	for _, n := range []int{15, 24, 32} { // AES-192 and -256 keys are not this permutation
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPerm took a %d-byte key", n)
				}
			}()
			NewPerm(make([]byte, n))
		}()
	}
}

// FuzzPermMatchesCipher: for any key and eight lanes, every lane width of
// both paths equals crypto/aes.
func FuzzPermMatchesCipher(f *testing.F) {
	f.Add(make([]byte, 16), make([]byte, 64))
	f.Add([]byte("sixteen byte key"), bytes.Repeat([]byte{0xA5}, 64))
	f.Add([]byte{1}, []byte{2, 3})
	f.Fuzz(func(t *testing.T, key, blocks []byte) {
		var k [16]byte
		copy(k[:], key)
		var in Lanes
		for l := range in {
			copy(in[l][:], blocks[min(len(blocks), 16*l):])
		}
		checkPerm(t, k[:], in)
	})
}

func BenchmarkPerm(b *testing.B) {
	p := NewPerm(make([]byte, 16))
	for _, n := range []int{1, 2, 4, 8} {
		for name, enc := range map[string]func(*Lanes, int){"kernel": p.Encrypt, "portable": p.portable} {
			b.Run(name+"/"+string(rune('0'+n)), func(b *testing.B) {
				l := new(Lanes)
				b.SetBytes(int64(16 * n))
				for i := 0; i < b.N; i++ {
					enc(l, n)
				}
			})
		}
	}
}
