package bitmat

import (
	"math/rand"
	"testing"
)

func BenchmarkTranspose4096x256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 4096, 256)
	b.SetBytes(int64(len(m.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Transpose(m)
	}
}

func BenchmarkTranspose128x128(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 128, 128)
	b.SetBytes(int64(len(m.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Transpose(m)
	}
}

func BenchmarkTranspose256x4096(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 256, 4096)
	b.SetBytes(int64(len(m.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Transpose(m)
	}
}

// BenchmarkTransposeInto192x4096 is one triplet round's transpose at
// N = 4: the 192 x 4096 column matrix into a kept 4096 x 192 row matrix,
// on one worker.
func BenchmarkTransposeInto192x4096(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 192, 4096)
	out := New(4096, 192)
	b.SetBytes(int64(len(m.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TransposeInto(out, m, 1)
	}
}
