package prg

import (
	"bytes"
	"encoding/binary"
	"testing"

	"abnn2/internal/ring"
)

// referenceHash is FastOracle.Hash as it stood before the Deriver: every
// query absorbs its own header, byte by byte. It is frozen here so the
// word-wise core is checked against an independent implementation of the
// same function, not against itself.
func referenceHash(o *FastOracle, session, index, tweak uint64, data []byte, n int) []byte {
	var h, b, x, e [16]byte
	absorb := func() {
		XORBytes(x[:], h[:], b[:])
		o.block.Encrypt(e[:], x[:])
		XORBytes(h[:], e[:], x[:])
	}
	binary.LittleEndian.PutUint64(b[0:], session)
	binary.LittleEndian.PutUint64(b[8:], index)
	absorb()
	binary.LittleEndian.PutUint64(b[0:], tweak)
	binary.LittleEndian.PutUint64(b[8:], uint64(len(data)))
	absorb()
	for off := 0; off+16 <= len(data); off += 16 {
		copy(b[:], data[off:off+16])
		absorb()
	}
	if tail := len(data) % 16; tail != 0 {
		b = [16]byte{}
		copy(b[:], data[len(data)-tail:])
		absorb()
	}
	b = [16]byte{}
	b[15] = 0xA5
	absorb()
	out := make([]byte, (n+15)&^15)
	for i := 0; i*16 < n; i++ {
		binary.LittleEndian.PutUint64(x[0:], uint64(i)^binary.LittleEndian.Uint64(h[0:8]))
		binary.LittleEndian.PutUint64(x[8:], binary.LittleEndian.Uint64(h[8:16]))
		x[15] ^= 0xEE
		o.block.Encrypt(e[:], x[:])
		XORBytes(out[i*16:(i+1)*16], e[:], h[:])
	}
	return out[:n]
}

// derive is one query through a Deriver whose header is already set.
func derive(d *Deriver, data []byte, n int) []byte {
	out := make([]byte, n)
	d.XORPad(out, data)
	return out
}

// TestDeriverMatchesReference covers every data length from 0 to 80
// bytes (16 and 32 are the IKNP and KK13 row widths; the others end in a
// zero-padded block) against output lengths 1 to 100, through both the
// Hash wrapper and a Deriver reused across queries.
func TestDeriverMatchesReference(t *testing.T) {
	o := NewFastOracle("deriver-test")
	g := New(SeedFromInt(41))
	d := o.Deriver()
	for dataLen := 0; dataLen <= 80; dataLen++ {
		session, index, tweak := g.Uint64(), g.Uint64(), g.Uint64()
		d.Header(session, index, tweak, dataLen)
		for n := 1; n <= 100; n++ {
			data := g.Bytes(dataLen)
			want := referenceHash(o, session, index, tweak, data, n)
			if got := o.Hash(session, index, tweak, data, n); !bytes.Equal(got, want) {
				t.Fatalf("Hash differs from reference at dataLen=%d n=%d", dataLen, n)
			}
			if got := derive(&d, data, n); !bytes.Equal(got, want) {
				t.Fatalf("Deriver differs from reference at dataLen=%d n=%d", dataLen, n)
			}
		}
	}
}

// TestDeriverOrderAndInterleaving derives the candidates of one OT in
// reverse and repeated order, and alternates two Derivers over two OTs:
// a pad depends on the header and the data only, never on what the
// Deriver produced before.
func TestDeriverOrderAndInterleaving(t *testing.T) {
	o := NewFastOracle("deriver-test")
	g := New(SeedFromInt(42))
	const cands, n = 8, 24
	var data [2][cands][]byte
	var want [2][cands][]byte
	for ot := range data {
		for v := range data[ot] {
			data[ot][v] = g.Bytes(32)
			want[ot][v] = referenceHash(o, 7, uint64(100+ot), 0, data[ot][v], n)
		}
	}
	d := [2]Deriver{o.Deriver(), o.Deriver()}
	d[0].Header(7, 100, 0, 32)
	d[1].Header(7, 101, 0, 32)
	for _, v := range []int{7, 6, 5, 4, 3, 2, 1, 0, 3, 3, 0, 7} {
		for ot := range d {
			if got := derive(&d[ot], data[ot][v], n); !bytes.Equal(got, want[ot][v]) {
				t.Fatalf("OT %d candidate %d differs from reference", ot, v)
			}
		}
	}
	// A new header replaces the old one completely.
	d[0].Header(7, 101, 0, 32)
	if got := derive(&d[0], data[1][2], n); !bytes.Equal(got, want[1][2]) {
		t.Fatal("re-headed Deriver differs from reference")
	}
}

func TestDeriverXORsIntoDst(t *testing.T) {
	o := NewFastOracle("deriver-test")
	d := o.Deriver()
	d.Header(1, 2, 3, 5)
	for n := 1; n <= 40; n++ {
		dst := New(SeedFromInt(uint64(n))).Bytes(n)
		want := XORBytes(make([]byte, n), dst, referenceHash(o, 1, 2, 3, []byte("hello"), n))
		d.XORPad(dst, []byte("hello"))
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d: XORPad did not XOR the pad into dst", n)
		}
	}
}

func TestDeriverPanicsOnWrongDataLength(t *testing.T) {
	d := NewFastOracle("deriver-test").Deriver()
	for _, header := range []bool{false, true} {
		if header {
			d.Header(1, 2, 3, 16)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic (header set: %v)", header)
				}
			}()
			d.XORPad(make([]byte, 8), make([]byte, 15))
		}()
	}
}

// FuzzPadDeriverMatchesHash: for any query, Hash and a Deriver that has
// already served other queries yield the frozen reference's bytes. The
// header argument carries session, index, tweak (8 bytes each) and the
// output length (2 bytes), zero-extended when short; internal/testkit/
// gencorpus writes the checked-in seed.
func FuzzPadDeriverMatchesHash(f *testing.F) {
	f.Add(make([]byte, 26), make([]byte, 16))
	f.Add([]byte{1, 2, 3}, []byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 26), []byte("seventeen bytes!!"))
	o := NewFastOracle("deriver-fuzz")
	reused := o.Deriver()
	f.Fuzz(func(t *testing.T, header, data []byte) {
		var hdr [26]byte
		copy(hdr[:], header)
		session := binary.LittleEndian.Uint64(hdr[0:])
		index := binary.LittleEndian.Uint64(hdr[8:])
		tweak := binary.LittleEndian.Uint64(hdr[16:])
		n := int(binary.LittleEndian.Uint16(hdr[24:]))%512 + 1
		want := referenceHash(o, session, index, tweak, data, n)
		if got := o.Hash(session, index, tweak, data, n); !bytes.Equal(got, want) {
			t.Fatalf("Hash differs from reference (dataLen=%d n=%d)", len(data), n)
		}
		reused.Header(session, index, tweak, len(data))
		for rep := 0; rep < 2; rep++ {
			if got := derive(&reused, data, n); !bytes.Equal(got, want) {
				t.Fatalf("reused Deriver differs from reference (dataLen=%d n=%d rep=%d)", len(data), n, rep)
			}
		}
	})
}

// TestVecMatchesElementwiseDraws pins the bulk keystream draw of Vec and
// Mat to the per-element definition: after an odd-length read, the values
// equal Uint64()&mask from a twin PRG, and both PRGs are left in the same
// state. The lengths straddle the internal bulk size.
func TestVecMatchesElementwiseDraws(t *testing.T) {
	for _, bits := range []uint{1, 13, 32, 64} {
		rg := ring.New(bits)
		for _, n := range []int{0, 1, 7, 1023, 1024, 1025, 5000} {
			a, b := New(SeedFromInt(9)), New(SeedFromInt(9))
			if !bytes.Equal(a.Bytes(5), b.Bytes(5)) {
				t.Fatal("twin PRGs diverged")
			}
			got := a.Vec(rg, n)
			for i := 0; i < n; i++ {
				if want := b.Uint64() & rg.Mask(); got[i] != want {
					t.Fatalf("bits=%d n=%d: Vec[%d] = %#x, want %#x", bits, n, i, got[i], want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("bits=%d n=%d: PRG state differs after Vec", bits, n)
			}
			m := a.Mat(rg, 3, n)
			for i := range m.Data {
				if want := b.Uint64() & rg.Mask(); m.Data[i] != want {
					t.Fatalf("bits=%d n=%d: Mat.Data[%d] = %#x, want %#x", bits, n, i, m.Data[i], want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("bits=%d n=%d: PRG state differs after Mat", bits, n)
			}
		}
	}
}
