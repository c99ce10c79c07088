package prg

import (
	"bytes"
	"encoding/binary"
	"testing"

	"abnn2/internal/ring"
)

// referenceHash is the textbook FastOracle.Hash, block by block and byte
// by byte as the type's comment defines it: every query pays its own
// header and index blocks. It is frozen here so the word-wise, prefix-
// sharing core is checked against an independent implementation of the
// same function, not against itself.
func referenceHash(o *FastOracle, session, index, tweak uint64, data []byte, n int) []byte {
	var h, b, x, e [16]byte
	absorb := func() {
		XORBytes(x[:], h[:], b[:])
		o.Block.Encrypt(e[:], x[:])
		XORBytes(h[:], e[:], x[:])
	}
	meta := tweak<<32 | uint64(len(data))<<1
	if n <= 16 {
		meta |= 1
	}
	binary.LittleEndian.PutUint64(b[0:], session)
	binary.LittleEndian.PutUint64(b[8:], meta)
	absorb()
	binary.LittleEndian.PutUint64(b[0:], index)
	binary.LittleEndian.PutUint64(b[8:], 0)
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
	if n <= 16 {
		return append([]byte(nil), h[:n]...)
	}
	out := make([]byte, (n+15)&^15)
	for i := 0; i*16 < n; i++ {
		binary.LittleEndian.PutUint64(x[0:], uint64(i)^binary.LittleEndian.Uint64(h[0:8]))
		binary.LittleEndian.PutUint64(x[8:], binary.LittleEndian.Uint64(h[8:16]))
		x[15] ^= 0xEE
		o.Block.Encrypt(e[:], x[:])
		XORBytes(out[i*16:(i+1)*16], e[:], h[:])
	}
	return out[:n]
}

// derive is one query through a Deriver whose index is set.
func derive(d *Deriver, data []byte, n int) []byte {
	out := make([]byte, n)
	d.XORPad(out, data)
	return out
}

// TestDeriverMatchesReference covers every data length from 0 to 80
// bytes (16, 24 and 32 are IKNP's and KK13's row widths; the others end
// in a zero-padded block) against output lengths 1 to 100 — both output
// shapes, switching at 17 within one index — through both the Hash
// wrapper and a Deriver reused across queries.
func TestDeriverMatchesReference(t *testing.T) {
	o := NewFastOracle("deriver-test")
	g := New(SeedFromInt(41))
	for dataLen := 0; dataLen <= 80; dataLen++ {
		session, index, tweak := g.Uint64(), g.Uint64(), g.Uint64()>>32
		d := o.Deriver(session, tweak, dataLen)
		d.Index(index)
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
// a pad depends on the header, the index and the data only, never on
// what the Deriver produced before.
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
	d := [2]Deriver{o.Deriver(7, 0, 32), o.Deriver(7, 0, 32)}
	for ot := range d {
		d[ot].Index(uint64(100 + ot))
	}
	for _, v := range []int{7, 6, 5, 4, 3, 2, 1, 0, 3, 3, 0, 7} {
		for ot := range d {
			if got := derive(&d[ot], data[ot][v], n); !bytes.Equal(got, want[ot][v]) {
				t.Fatalf("OT %d candidate %d differs from reference", ot, v)
			}
		}
	}
	// A new index replaces the old one completely.
	d[0].Index(101)
	if got := derive(&d[0], data[1][2], n); !bytes.Equal(got, want[1][2]) {
		t.Fatal("re-indexed Deriver differs from reference")
	}
}

func TestDeriverXORsIntoDst(t *testing.T) {
	o := NewFastOracle("deriver-test")
	d := o.Deriver(1, 3, 5)
	d.Index(2)
	for n := 1; n <= 40; n++ {
		dst := New(SeedFromInt(uint64(n))).Bytes(n)
		want := XORBytes(make([]byte, n), dst, referenceHash(o, 1, 2, 3, []byte("hello"), n))
		d.XORPad(dst, []byte("hello"))
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d: XORPad did not XOR the pad into dst", n)
		}
	}
}

// TestDeriverPanicsOnWrongDataLength: data of another length than the
// header commits to, and a tweak or length the header word has no room
// for, are bugs in the caller and stop it.
func TestDeriverPanicsOnWrongDataLength(t *testing.T) {
	o := NewFastOracle("deriver-test")
	for name, f := range map[string]func(){
		"data":    func() { d := o.Deriver(1, 3, 16); d.XORPad(make([]byte, 8), make([]byte, 15)) },
		"tweak":   func() { o.Hash(1, 2, 1<<32, nil, 8) },
		"dataLen": func() { o.Deriver(1, 0, 1<<31) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzPadDeriverMatchesHash: for any query, Hash and a Deriver that has
// already served another query yield the frozen reference's bytes. The
// header argument carries session, index, tweak (8 bytes each, the tweak
// cut to the 32 bits the header block has for it) and the output length
// (2 bytes), zero-extended when short.
func FuzzPadDeriverMatchesHash(f *testing.F) {
	// A KK13-shaped query at N = 4: one 192-column row, a 16-byte pad.
	kk13 := make([]byte, 26)
	kk13[0], kk13[8], kk13[20], kk13[24] = 0xC0, 3, 1, 15
	f.Add(kk13, bytes.Repeat([]byte{0xA5}, 24))
	f.Add(make([]byte, 26), make([]byte, 16))
	f.Add([]byte{1, 2, 3}, []byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 26), []byte("seventeen bytes!!"))
	o := NewFastOracle("deriver-fuzz")
	f.Fuzz(func(t *testing.T, header, data []byte) {
		var hdr [26]byte
		copy(hdr[:], header)
		session := binary.LittleEndian.Uint64(hdr[0:])
		index := binary.LittleEndian.Uint64(hdr[8:])
		tweak := binary.LittleEndian.Uint64(hdr[16:]) >> 32
		n := int(binary.LittleEndian.Uint16(hdr[24:]))%512 + 1
		want := referenceHash(o, session, index, tweak, data, n)
		if got := o.Hash(session, index, tweak, data, n); !bytes.Equal(got, want) {
			t.Fatalf("Hash differs from reference (dataLen=%d n=%d)", len(data), n)
		}
		// A Deriver that has served another index, at the short or the
		// long output shape, then the query twice.
		reused := o.Deriver(session, tweak, len(data))
		reused.Index(index + 1)
		derive(&reused, data, 8+16*(n&1))
		reused.Index(index)
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
