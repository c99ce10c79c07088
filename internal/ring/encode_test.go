package ring

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// TestSpanCodecMatchesElementwise holds the span codec to the per-element
// encoding at every ring width and span lengths 0 to 17: PutVec writes
// exactly the bytes PutElem writes element by element, and AddDecoded
// adds exactly what GetElem reads. Values carry bits above l, so both
// must mask them, and the decoded bytes are random, so high bits in an
// encoding must be dropped, not rejected.
func TestSpanCodecMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for bits := uint(1); bits <= 64; bits++ {
		r := New(bits)
		n := r.Bytes()
		for count := 0; count <= 17; count++ {
			v := make(Vec, count)
			for i := range v {
				v[i] = rng.Uint64() | 1<<63 // a high bit set, whatever l is
			}
			// Both buffers start as the same noise one byte past the span.
			got := make([]byte, count*n+1)
			rng.Read(got)
			want := append([]byte(nil), got...)
			for i, x := range v {
				r.PutElem(want[i*n:], x)
			}
			r.PutVec(got, v)
			if !bytes.Equal(got, want) {
				t.Fatalf("l=%d count=%d: PutVec wrote %x, PutElem %x", bits, count, got, want)
			}

			src := make([]byte, count*n)
			rng.Read(src)
			acc := make(Vec, count)
			for i := range acc {
				acc[i] = rng.Uint64() & r.Mask()
			}
			sum := acc.Clone()
			for i := range sum {
				sum[i] = r.Add(sum[i], r.GetElem(src[i*n:]))
			}
			r.AddDecoded(acc, src)
			if !slices.Equal(acc, sum) { // unreduced: the codec keeps v reduced
				t.Fatalf("l=%d count=%d: AddDecoded %x, per-element GetElem %x", bits, count, acc, sum)
			}
		}
	}
}

// TestPutMulSubMatchesPutVec holds the fused writer to the path it
// replaced in the triplet kernel: for each c, products c·v[i] − s[i]
// into a Vec, then PutVec, span after span, then the pads XORed over
// them. Inputs carry bits above l, so the word cases must mask exactly as
// PutVec does (l = 25..31 and 57..63 have spare bits in their 4- and
// 8-byte encodings), and the noise byte past the spans must survive.
func TestPutMulSubMatchesPutVec(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, bits := range []uint{1, 7, 8, 9, 24, 25, 31, 32, 33, 56, 57, 63, 64} {
		r := New(bits)
		for _, count := range []int{0, 1, 2, 5, 16, 17} {
			for _, ncs := range []int{0, 1, 3} {
				cs := make(Vec, ncs)
				for k := range cs {
					cs[k] = rng.Uint64() | 1<<63
				}
				v, s := make(Vec, count), make(Vec, count+1) // s may run past v
				for i := range s {
					s[i] = rng.Uint64() | 1<<62
				}
				for i := range v {
					v[i] = rng.Uint64() | 1<<63
				}
				pads := make([]byte, ncs*r.VecBytes(count)+1) // may run past the spans
				rng.Read(pads)
				got := make([]byte, ncs*r.VecBytes(count)+1)
				rng.Read(got)
				want := append([]byte(nil), got...)
				for k, c := range cs {
					prod := make(Vec, count)
					for i, x := range v {
						prod[i] = c*x - s[i]
					}
					r.PutVec(want[k*r.VecBytes(count):], prod)
				}
				for i := range want[:len(want)-1] {
					want[i] ^= pads[i]
				}
				r.PutMulSub(got, pads, cs, v, s)
				if !bytes.Equal(got, want) {
					t.Fatalf("l=%d count=%d cs=%d: PutMulSub wrote %x, products then PutVec and pads %x", bits, count, ncs, got, want)
				}
			}
		}
	}
}

// TestSpanCodecAllocatesNothing: the codec writes and reads the caller's
// buffers and nothing else, at the word widths and a masked one, on
// spans long enough for the span kernels.
func TestSpanCodecAllocatesNothing(t *testing.T) {
	for _, bits := range []uint{12, 32, 33, 64} {
		r := New(bits)
		v := make(Vec, 64)
		buf, cs := make([]byte, r.VecBytes(len(v))), Vec{3}
		if a := testing.AllocsPerRun(10, func() { r.PutVec(buf, v) }); a != 0 {
			t.Errorf("l=%d: PutVec made %.0f allocations", bits, a)
		}
		if a := testing.AllocsPerRun(10, func() { r.PutMulSub(buf, buf, cs, v, v) }); a != 0 {
			t.Errorf("l=%d: PutMulSub made %.0f allocations", bits, a)
		}
		if a := testing.AllocsPerRun(10, func() { r.AddDecoded(v, buf) }); a != 0 {
			t.Errorf("l=%d: AddDecoded made %.0f allocations", bits, a)
		}
		if a := testing.AllocsPerRun(10, func() { r.SubDecoded(v, buf) }); a != 0 {
			t.Errorf("l=%d: SubDecoded made %.0f allocations", bits, a)
		}
	}
}
