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
