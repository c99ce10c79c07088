package prg

import (
	"testing"

	"abnn2/internal/ring"
)

func BenchmarkPRGFill4KiB(b *testing.B) {
	g := New(SeedFromInt(1))
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Fill(buf)
	}
}

func BenchmarkOracleBlock(b *testing.B) {
	o := NewOracle("bench")
	data := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Block(1, uint64(i), 0, data)
	}
}

func BenchmarkOracleHash512(b *testing.B) {
	o := NewOracle("bench")
	data := make([]byte, 32)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Hash(1, uint64(i), 0, data, 512)
	}
}

// The public wrapper: one OT-extension-shaped query (a 32-byte KK13 row
// in, one 16-byte block out) including its header and index blocks.
func BenchmarkFastOracleHash(b *testing.B) {
	o := NewFastOracle("bench")
	data := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Hash(1, uint64(i), 0, data, 16)
	}
}

// The same query through a Deriver, four candidates per index as in a
// 1-out-of-4 OT; one op is one candidate pad.
func BenchmarkDeriverXORPad(b *testing.B) {
	data := make([]byte, 32)
	d := NewFastOracle("bench").Deriver(1, 0, len(data))
	var pad [16]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			d.Index(uint64(i))
		}
		d.XORPad(pad[:], data)
	}
}

func BenchmarkVec4096(b *testing.B) {
	g := New(SeedFromInt(1))
	rg := ring.New(32)
	b.SetBytes(4096 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Vec(rg, 4096)
	}
}
