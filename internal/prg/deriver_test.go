package prg

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"testing"
	"unsafe"

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

// derive is one query through a Deriver: a run of one OT.
func derive(d *Deriver, index uint64, data []byte, n int) []byte {
	out := make([]byte, n)
	d.XORPadsRun(out, n, index, data, nil)
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
		for n := 1; n <= 100; n++ {
			data := g.Bytes(dataLen)
			want := referenceHash(o, session, index, tweak, data, n)
			if got := o.Hash(session, index, tweak, data, n); !bytes.Equal(got, want) {
				t.Fatalf("Hash differs from reference at dataLen=%d n=%d", dataLen, n)
			}
			if got := derive(&d, index, data, n); !bytes.Equal(got, want) {
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
	for _, v := range []int{7, 6, 5, 4, 3, 2, 1, 0, 3, 3, 0, 7} {
		for ot := range d {
			if got := derive(&d[ot], uint64(100+ot), data[ot][v], n); !bytes.Equal(got, want[ot][v]) {
				t.Fatalf("OT %d candidate %d differs from reference", ot, v)
			}
		}
	}
	// Another index is another query, whichever Deriver asks it.
	if got := derive(&d[0], 101, data[1][2], n); !bytes.Equal(got, want[1][2]) {
		t.Fatal("re-indexed Deriver differs from reference")
	}
}

func TestDeriverXORsIntoDst(t *testing.T) {
	o := NewFastOracle("deriver-test")
	d := o.Deriver(1, 3, 5)
	for n := 1; n <= 40; n++ {
		dst := New(SeedFromInt(uint64(n))).Bytes(n)
		want := XORBytes(make([]byte, n), dst, referenceHash(o, 1, 2, 3, []byte("hello"), n))
		d.XORPadsRun(dst, n, 2, []byte("hello"), nil)
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d: XORPadsRun did not XOR the pad into dst", n)
		}
	}
}

// TestDeriverXORPadsMatchesReference derives N candidates in lockstep —
// N below, at and above the four lanes of a permutation call, and not a
// multiple of them — over row widths with and without a zero-padded tail
// and pads of both output shapes, on a Deriver that single pads of the
// other shape interleave with, and XORs into a dst that is not zero.
func TestDeriverXORPadsMatchesReference(t *testing.T) {
	o := NewFastOracle("deriver-test")
	g := New(SeedFromInt(43))
	for _, cands := range []int{1, 2, 3, 4, 5, 8, 16} {
		for _, w := range []int{1, 8, 16, 24, 32, 40} {
			session, tweak := g.Uint64(), g.Uint64()>>32
			d := o.Deriver(session, tweak, w)
			for _, n := range []int{1, 4, 8, 16, 17, 33, 64} {
				index := g.Uint64()
				row, masks := g.Bytes(w), g.Bytes(cands*w)
				dst := g.Bytes(cands * n)
				want := append([]byte(nil), dst...)
				for v := 0; v < cands; v++ {
					data := XORBytes(make([]byte, w), row, masks[v*w:(v+1)*w])
					XORBytes(want[v*n:(v+1)*n], want[v*n:(v+1)*n], referenceHash(o, session, index, tweak, data, n))
				}
				other := 8 + 16*(n&1^1) // a single pad of the other shape first
				if got := derive(&d, index, row, other); !bytes.Equal(got, referenceHash(o, session, index, tweak, row, other)) {
					t.Fatalf("N=%d w=%d n=%d: single pad differs from reference", cands, w, n)
				}
				d.XORPadsRun(dst, n, index, row, masks)
				if !bytes.Equal(dst, want) {
					t.Fatalf("N=%d w=%d n=%d: XORPadsRun differs from reference", cands, w, n)
				}
			}
		}
	}
}

// TestDeriverPanicsOnWrongDataLength: data of another length than the
// header commits to, and a tweak or length the header word has no room
// for, are bugs in the caller and stop it.
func TestDeriverPanicsOnWrongDataLength(t *testing.T) {
	o := NewFastOracle("deriver-test")
	cases := map[string]func(){
		"data":  func() { d := o.Deriver(1, 3, 16); d.XORPadsRun(make([]byte, 8), 8, 2, make([]byte, 15), nil) },
		"tweak": func() { o.Hash(1, 2, 1<<32, nil, 8) },
		"row": func() {
			d := o.Deriver(1, 3, 16)
			d.XORPadsRun(make([]byte, 8), 4, 2, make([]byte, 15), make([]byte, 30))
		},
		"masks": func() {
			d := o.Deriver(1, 3, 16)
			d.XORPadsRun(make([]byte, 8), 4, 2, make([]byte, 16), make([]byte, 40))
		},
		"noMasks": func() { d := o.Deriver(1, 3, 16); d.XORPadsRun(make([]byte, 8), 4, 2, make([]byte, 16), []byte{}) },
		"dst": func() {
			d := o.Deriver(1, 3, 16)
			d.XORPadsRun(make([]byte, 9), 4, 2, make([]byte, 16), make([]byte, 32))
		},
		"noRow": func() { d := o.Deriver(1, 3, 0); d.XORPadsRun(make([]byte, 8), 8, 2, nil, make([]byte, 8)) },
		"run":   func() { d := o.Deriver(1, 3, 16); d.XORPadsRun(make([]byte, 16), 8, 2, make([]byte, 16), nil) },
		"n":     func() { d := o.Deriver(1, 3, 16); d.XORPadsRun(nil, 0, 2, nil, nil) },
	}
	if strconv.IntSize == 64 {
		// A length of 2^31 is no int on a 32-bit platform.
		dataLen := uint64(1) << 31
		cases["dataLen"] = func() { o.Deriver(1, 0, int(dataLen)) }
	}
	for name, f := range cases {
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

// FuzzPadDeriverMatchesHash: for any query, Hash, a Deriver that has
// already served another query, and its lockstep run of one OT over candidates
// of the query's data yield the frozen reference's bytes. The
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
		derive(&reused, index+1, data, 8+16*(n&1))
		for rep := 0; rep < 2; rep++ {
			if got := derive(&reused, index, data, n); !bytes.Equal(got, want) {
				t.Fatalf("reused Deriver differs from reference (dataLen=%d n=%d rep=%d)", len(data), n, rep)
			}
		}
		// Five candidates in lockstep, the data as the row and masks of
		// one repeated byte each: candidate 0's mask is zero.
		if len(data) == 0 {
			return
		}
		const cands = 5
		masks := make([]byte, 0, cands*len(data))
		for v := byte(0); v < cands; v++ {
			masks = append(masks, bytes.Repeat([]byte{v * 0x3B}, len(data))...)
		}
		pads := make([]byte, cands*n)
		reused.XORPadsRun(pads, n, index, data, masks)
		for v := 0; v < cands; v++ {
			cand := XORBytes(make([]byte, len(data)), data, masks[v*len(data):(v+1)*len(data)])
			if !bytes.Equal(pads[v*n:(v+1)*n], referenceHash(o, session, index, tweak, cand, n)) {
				t.Fatalf("lockstep candidate %d differs from reference (dataLen=%d n=%d)", v, len(data), n)
			}
		}
	})
}

// checkRun derives a run of k OTs through o's and through the counted
// literal's Derivers — the pad kernel where the host has it, and the
// portable path — into the same non-zero dst, and holds both to the
// frozen reference, OT by OT and candidate by candidate. masks nil is the
// receiver's shape, one pad of the row per OT.
func checkRun(t *testing.T, o *FastOracle, session, first, tweak uint64, rows, masks, dst []byte, n, k int) {
	t.Helper()
	w := len(rows) / k
	cands := 1
	if masks != nil {
		cands = len(masks) / w
	}
	want := append([]byte(nil), dst...)
	for i := 0; i < k; i++ {
		for v := 0; v < cands; v++ {
			data := append([]byte(nil), rows[i*w:(i+1)*w]...)
			if masks != nil {
				XORBytes(data, data, masks[v*w:(v+1)*w])
			}
			span := want[(i*cands+v)*n : (i*cands+v+1)*n]
			XORBytes(span, span, referenceHash(o, session, first+uint64(i), tweak, data, n))
		}
	}
	for name, oracle := range map[string]*FastOracle{"kernel": o, "portable": {Block: o.Block}} {
		d := oracle.Deriver(session, tweak, w)
		got := append([]byte(nil), dst...)
		d.XORPadsRun(got, n, first, rows, masks)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: w=%d cands=%d n=%d k=%d first=%#x: run differs from reference", name, w, cands, n, k, first)
		}
	}
}

// TestXORPadsRunMatchesReference holds the run form to the frozen
// reference over every row width from 1 to 40 bytes, 1 to 8 candidates
// (and masks nil), pads of both shapes and runs of 1 to 33 OTs, then
// sweeps the pad kernel's own shapes — 16- and 24-byte rows, every short
// pad length, every run length, so that every group count and tail
// occurs — with indices that wrap past 2^64 among them, and then its long
// pads, whole blocks from 32 to 2304 bytes, beside a 136-byte one that is
// not a whole number of blocks and takes the portable path.
func TestXORPadsRunMatchesReference(t *testing.T) {
	o := NewFastOracle("run-test")
	g := New(SeedFromInt(44))
	run := func(w, cands, n, k int, first uint64) {
		rows, dst := g.Bytes(k*w), g.Bytes(k*max(cands, 1)*n)
		var masks []byte
		if cands > 0 {
			masks = g.Bytes(cands * w)
		}
		checkRun(t, o, g.Uint64(), first, g.Uint64()>>32, rows, masks, dst, n, k)
	}
	step := 0
	for w := 1; w <= 40; w++ {
		for cands := 0; cands <= 8; cands++ {
			for _, n := range []int{1, 4, 8, 15, 16, 17, 33, 64} {
				step++
				run(w, cands, n, 1+step*7%33, g.Uint64())
			}
		}
	}
	for _, w := range []int{16, 24} {
		for _, cands := range []int{0, 1, 2, 3, 4, 5, 8} {
			for n := 1; n <= 16; n++ {
				for k := 1; k <= 33; k++ {
					first := g.Uint64()
					if k%4 == 0 {
						first = -uint64(1 + g.Intn(8)) // within 8 of 2^64
					}
					run(w, cands, n, k, first)
				}
			}
		}
	}
	for _, w := range []int{16, 24} {
		for _, cands := range []int{0, 1, 2, 3, 4, 8} {
			for _, n := range []int{32, 48, 64, 128, 136, 2304} {
				for _, k := range []int{1, 2, 3, 7, 8, 9, 17} {
					if n == 2304 && k > 9 {
						continue
					}
					run(w, cands, n, k, -uint64(1+g.Intn(16))) // within 16 of 2^64
				}
			}
		}
	}
}

// TestPadRunLayout: the pad kernel reads padRun by the byte offsets
// perm_amd64.s names; a field that moves must move there too.
func TestPadRunLayout(t *testing.T) {
	var r padRun
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"g", unsafe.Offsetof(r.g), 0},
		{"groups", unsafe.Offsetof(r.groups), 16},
		{"blocks", unsafe.Offsetof(r.blocks), 24},
		{"n", unsafe.Offsetof(r.n), 32},
		{"rowStep", unsafe.Offsetof(r.rowStep), 40},
		{"dstStep", unsafe.Offsetof(r.dstStep), 48},
		{"otStep", unsafe.Offsetof(r.otStep), 56},
		{"usedBytes", unsafe.Offsetof(r.usedBytes), 64},
		{"lane", unsafe.Offsetof(r.lane), 72},
		{"lane size", unsafe.Sizeof(r.lane[0]), 24},
	} {
		if f.got != f.want {
			t.Errorf("padRun.%s at %d, the kernel reads it at %d", f.name, f.got, f.want)
		}
	}
}

// FuzzPadRunMatchesHash: any run — row width, candidates (or masks nil),
// pad length, run length and first index from the header, rows and masks
// from the data cycled — derives the frozen reference's bytes through the
// kernel and the portable path alike, XORed into a dst that is not zero.
// The header carries session and first index (8 bytes each), then one
// byte each of width (mod 41), candidates (mod 9, 0 for masks nil), pad
// length (mod 64, plus 1), run length (mod 33, plus 1) and 64-byte
// blocks added to the pad length (mod 37, reaching 2368 bytes),
// zero-extended when short.
func FuzzPadRunMatchesHash(f *testing.F) {
	shape := func(first uint64, w, cands byte, n int, k byte) []byte {
		h := make([]byte, 20, 21)
		binary.LittleEndian.PutUint64(h[0:], 0xC0FFEE)
		binary.LittleEndian.PutUint64(h[8:], first)
		h[16], h[17], h[18], h[19] = w, cands, byte((n-1)%64), k-1
		if n > 64 {
			h = append(h, byte((n-1)/64))
		}
		return h
	}
	f.Add(shape(1<<20, 24, 4, 4, 32), []byte("one-batch client at N = 4"))
	f.Add(shape(1<<20, 24, 0, 16, 32), []byte("one-batch server at N = 4"))
	f.Add(shape(0, 16, 2, 16, 9), []byte("GC label OTs"))
	f.Add(shape(77, 24, 3, 8, 5), []byte("ternary"))
	f.Add(shape(^uint64(0)-3, 16, 1, 16, 17), []byte{0xFF})
	f.Add(shape(5, 40, 5, 64, 3), []byte{})
	f.Add(shape(1<<20, 24, 4, 128, 6), []byte("multi-batch client at N = 4, o = 32"))
	f.Add(shape(^uint64(0)-5, 24, 0, 128, 19), []byte("multi-batch server, o = 32"))
	f.Add(shape(9, 24, 0, 2304, 9), []byte("conv server, o = 576"))
	o := NewFastOracle("run-fuzz")
	f.Fuzz(func(t *testing.T, header, data []byte) {
		var hdr [21]byte
		copy(hdr[:], header)
		session := binary.LittleEndian.Uint64(hdr[0:])
		first := binary.LittleEndian.Uint64(hdr[8:])
		w, cands := int(hdr[16])%41, int(hdr[17])%9
		n, k := int(hdr[18])%64+1+64*(int(hdr[20])%37), int(hdr[19])%33+1
		if w == 0 {
			cands = 0 // masks need a row to mask
		}
		material := make([]byte, k*w+cands*w+k*max(cands, 1)*n)
		for i := range material {
			if len(data) > 0 {
				material[i] = data[i%len(data)] ^ byte(i)
			}
		}
		rows, rest := material[:k*w], material[k*w:]
		var masks []byte
		if cands > 0 {
			masks, rest = rest[:cands*w], rest[cands*w:]
		}
		checkRun(t, o, session, first, 9, rows, masks, rest, n, k)
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
