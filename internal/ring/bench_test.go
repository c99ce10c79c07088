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
