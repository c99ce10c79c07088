package ring

import (
	"math/rand"
	"testing"
)

func BenchmarkMulMat128x784x16(b *testing.B) {
	r := New(32)
	rng := rand.New(rand.NewSource(3))
	m := randMat(rng, r, 128, 784)
	x := randMat(rng, r, 784, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.MulMat(m, x)
	}
}

func BenchmarkEncodeVec1024(b *testing.B) {
	r := New(32)
	rng := rand.New(rand.NewSource(4))
	v := randVec(rng, r, 1024)
	buf := make([]byte, 0, r.VecBytes(1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.AppendVec(buf[:0], v)
	}
}

// BenchmarkPutMulSub32 is one multi-batch OT of the triplet kernel at
// l = 32: three candidates' spans of 32 products under their pads.
func BenchmarkPutMulSub32(b *testing.B) {
	r := New(32)
	rng := rand.New(rand.NewSource(5))
	cs, v, s := randVec(rng, r, 3), randVec(rng, r, 32), randVec(rng, r, 32)
	pads := make([]byte, len(cs)*r.VecBytes(len(v)))
	rng.Read(pads)
	dst := make([]byte, len(pads))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PutMulSub(dst, pads, cs, v, s)
	}
}
