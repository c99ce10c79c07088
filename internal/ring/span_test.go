package ring

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// goPutMulSub is PutMulSub in Go, element by element: each product
// through PutElem, then the pad byte XORed over each wire byte.
func goPutMulSub(r Ring, dst, pads []byte, cs []Elem, v, s Vec) {
	n := r.Bytes()
	for k, c := range cs {
		for i, x := range v {
			r.PutElem(dst[(k*len(v)+i)*n:], c*x-s[i])
		}
	}
	for i := range dst[:len(cs)*len(v)*n] {
		dst[i] ^= pads[i]
	}
}

// goDecode adds (sub false) or subtracts each GetElem of src into v.
func goDecode(r Ring, v Vec, src []byte, sub bool) {
	for i := range v {
		if x := r.GetElem(src[i*r.Bytes():]); sub {
			v[i] = r.Sub(v[i], x)
		} else {
			v[i] = r.Add(v[i], x)
		}
	}
}

// checkSpanKernels holds the span kernels — on amd64 at the 4-byte
// widths, called directly at any length, below the four elements the
// dispatch asks for too — and the dispatched PutMulSub, AddDecoded and
// SubDecoded to the Go path on one random input: count elements, ncs
// candidates, every input word with bits above l, random pads, and noise
// past each output that must survive.
func checkSpanKernels(t *testing.T, rng *rand.Rand, r Ring, count, ncs int) {
	t.Helper()
	word := func() uint64 { return rng.Uint64() | 1<<63 }
	cs, v, s := make(Vec, ncs), make(Vec, count), make(Vec, count)
	for _, x := range []Vec{cs, v, s} {
		for i := range x {
			x[i] = word()
		}
	}
	n := ncs * r.VecBytes(count)
	pads, noise := make([]byte, n+1), make([]byte, n+1)
	rng.Read(pads)
	rng.Read(noise)
	want := slices.Clone(noise)
	goPutMulSub(r, want, pads, cs, v, s)
	got := slices.Clone(noise)
	r.PutMulSub(got, pads, cs, v, s)
	if !bytes.Equal(got, want) {
		t.Fatalf("l=%d count=%d cs=%d: PutMulSub wrote %x, the Go path %x", r.Bits(), count, ncs, got, want)
	}
	kernel := spanKernels && r.Bytes() == 4
	if kernel {
		got = slices.Clone(noise)
		putMulSub32(got[:n], pads[:n], cs, v, s, r.mask)
		if !bytes.Equal(got, want) {
			t.Fatalf("l=%d count=%d cs=%d: putMulSub32 wrote %x, the Go path %x", r.Bits(), count, ncs, got, want)
		}
	}

	src := make([]byte, r.VecBytes(count))
	rng.Read(src)
	acc := make(Vec, count+1) // the last element lies past the span
	for i := range acc {
		acc[i] = word()
	}
	for _, dec := range []struct {
		name     string
		sub      bool
		pub      func(Vec, []byte)
		kernelFn func([]Elem, []byte, uint64)
	}{
		{"AddDecoded", false, r.AddDecoded, addDecoded32},
		{"SubDecoded", true, r.SubDecoded, subDecoded32},
	} {
		want := slices.Clone(acc)
		goDecode(r, want[:count], src, dec.sub)
		runs := map[string]func(Vec){"dispatched": func(x Vec) { dec.pub(x[:count], src) }}
		if kernel {
			runs["kernel"] = func(x Vec) { dec.kernelFn(x[:count], src, r.mask) }
		}
		for how, run := range runs {
			got := slices.Clone(acc)
			run(got)
			if !slices.Equal(got, want) {
				t.Fatalf("l=%d count=%d: %s (%s) gave %x, the Go path %x", r.Bits(), count, dec.name, how, got, want)
			}
		}
	}
}

// TestSpanKernelsMatchGo runs checkSpanKernels at the widths around each
// encoding size, every length up to two blocks past one, a one-batch
// payload's 32 and a conv layer's 576.
func TestSpanKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, bits := range []uint{1, 7, 8, 9, 24, 25, 31, 32, 33, 56, 57, 63, 64} {
		r := New(bits)
		for count := 0; count <= 17; count++ {
			for _, ncs := range []int{0, 1, 3} {
				checkSpanKernels(t, rng, r, count, ncs)
			}
		}
		for _, count := range []int{32, 576} {
			checkSpanKernels(t, rng, r, count, 3)
		}
	}
}

func FuzzSpanKernels(f *testing.F) {
	f.Add(uint8(31), uint16(32), uint8(3), int64(1))
	f.Add(uint8(24), uint16(5), uint8(1), int64(2))
	f.Add(uint8(28), uint16(576), uint8(15), int64(3))
	f.Add(uint8(63), uint16(17), uint8(2), int64(4))
	f.Add(uint8(0), uint16(0), uint8(0), int64(5))
	f.Fuzz(func(t *testing.T, bits uint8, count uint16, ncs uint8, seed int64) {
		checkSpanKernels(t, rand.New(rand.NewSource(seed)), New(1+uint(bits)%64), int(count)%1025, int(ncs)%16)
	})
}
