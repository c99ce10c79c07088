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
	masks := make([]byte, 4*len(data))
	d := NewFastOracle("bench").Deriver(1, 0, len(data))
	var pads [4 * 16]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 4 {
		d.XORPadsRun(pads[:], 16, uint64(i), data, masks)
	}
}

// BenchmarkPadRunLong derives the long pads of multi-batch triplets over
// the 24-byte rows of the N = 4 code, a 32-OT run per call as a triplet
// worker's sub-run; one op is one OT. A 128-byte pad is o = 32 products
// of a 32-bit ring (the bank's fill unit), 2304 bytes o = 576 (a conv
// layer): the client derives all four candidates, the server one pad.
func BenchmarkPadRunLong(b *testing.B) {
	const run, w = 32, 24
	for _, c := range []struct {
		name     string
		cands, n int
	}{{"client128N4", 4, 128}, {"server128", 0, 128}, {"server2304", 0, 2304}} {
		b.Run(c.name, func(b *testing.B) {
			g := New(SeedFromInt(7))
			d := NewFastOracle("bench").Deriver(1, 0, w)
			rows := g.Bytes(run * w)
			var masks []byte
			if c.cands > 0 {
				masks = g.Bytes(c.cands * w)
			}
			dst := make([]byte, run*max(c.cands, 1)*c.n)
			b.SetBytes(int64(max(c.cands, 1) * c.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += run {
				d.XORPadsRun(dst, c.n, uint64(i), rows, masks)
			}
		})
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
