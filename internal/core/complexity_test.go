package core

import (
	"math"
	"testing"

	"abnn2/internal/quant"
)

// Table 1's closed forms against hand-computed values.

func TestSecureMLComplexityKnown(t *testing.T) {
	// l=64, 128x1000 x 1000x1: #OT = 64*65/128 * 128000 = 4,160,000;
	// Table 1's comm = 128000*64*65*(1+2) bits. As sent: one COT per weight
	// bit, 128000*64 of them, each 128 column bits and o*64 correction bits,
	// in 1000 rounds of 8192.
	c := SecureMLComplexity(64, MatShape{M: 128, N: 1000, O: 1})
	if c.NumOTs != 4160000 {
		t.Errorf("#OT = %d, want 4160000", c.NumOTs)
	}
	if want := 128000.0 * 64 * 65 * 3; c.PaperBits != want {
		t.Errorf("paper comm = %v bits, want %v", c.PaperBits, want)
	}
	if want := 128000.0 * 64 * (128 + 64); c.CommBits != want {
		t.Errorf("comm as sent = %v bits, want %v", c.CommBits, want)
	}
	if c.Flights != 2000 {
		t.Errorf("flights = %d, want 2000", c.Flights)
	}
	// o = 16: the column bits are shared by the 16 products of one OT, the
	// paper's closed form scales whole.
	c = SecureMLComplexity(64, MatShape{M: 128, N: 1000, O: 16})
	if want := 128000.0 * 64 * (128 + 16*64); c.CommBits != want {
		t.Errorf("o=16: comm as sent = %v bits, want %v", c.CommBits, want)
	}
	if want := 16 * 128000.0 * 64 * 65 * 3; c.PaperBits != want {
		t.Errorf("o=16: paper comm = %v bits, want %v", c.PaperBits, want)
	}
}

func TestOneBatchComplexityKnown(t *testing.T) {
	// 8(2,2,2,2), l=32, m*n = 100: per fragment N=4, 192 columns:
	// 100 * (32*3 + 192) = 28800 bits; gamma=4 -> 115200 bits, 400 OTs.
	// As Table 1 prints it, 2*kappa columns: 100 * (32*3 + 256) * 4.
	c := OneBatchComplexity(32, quant.Uniform(2, 4), MatShape{M: 10, N: 10, O: 1})
	if c.NumOTs != 400 {
		t.Errorf("#OT = %d, want 400", c.NumOTs)
	}
	if c.CommBits != 115200 {
		t.Errorf("comm = %v bits, want 115200", c.CommBits)
	}
	if c.PaperBits != 140800 {
		t.Errorf("paper comm = %v bits, want 140800", c.PaperBits)
	}
}

func TestMultiBatchComplexityKnown(t *testing.T) {
	// ternary (N=3, gamma=1, 192 columns), l=32, o=4, m*n=100:
	// 100 * (4*32*3 + 192) = 100 * 576 = 57600 bits, 100 OTs; Table 1:
	// 100 * (4*32*3 + 256) = 64000.
	c := MultiBatchComplexity(32, quant.Ternary(), MatShape{M: 10, N: 10, O: 4})
	if c.NumOTs != 100 {
		t.Errorf("#OT = %d, want 100", c.NumOTs)
	}
	if c.CommBits != 57600 {
		t.Errorf("comm = %v bits, want 57600", c.CommBits)
	}
	if c.PaperBits != 64000 {
		t.Errorf("paper comm = %v bits, want 64000", c.PaperBits)
	}
}

func TestQuotientComplexityKnown(t *testing.T) {
	// l=32, m*n=100: 200 COTs of 32 correction bits and the repetition
	// code's 128 columns; Table 1's 2*kappa would be 200 * (32 + 256).
	c := QuotientComplexity(32, MatShape{M: 10, N: 10, O: 1})
	if c.NumOTs != 200 || c.CommBits != 200*(32+128) || c.PaperBits != 200*(32+256) {
		t.Errorf("#OT = %d, comm = %v, paper comm = %v", c.NumOTs, c.CommBits, c.PaperBits)
	}
}

func TestOfflineComplexitySelectsMode(t *testing.T) {
	sch := quant.Binary()
	one := OfflineComplexity(32, sch, MatShape{M: 2, N: 2, O: 1})
	multi := OfflineComplexity(32, sch, MatShape{M: 2, N: 2, O: 2})
	if one.CommBits >= multi.CommBits {
		t.Errorf("one-batch (%v) should be below multi-batch o=2 (%v)", one.CommBits, multi.CommBits)
	}
}

// The paper's Table 2 batch-1 values in MiB, reproduced from the formula
// over the Figure 4 network (l=32).
func TestTable2Formula(t *testing.T) {
	shapes := []MatShape{{M: 128, N: 784, O: 1}, {M: 128, N: 128, O: 1}, {M: 10, N: 128, O: 1}}
	cases := []struct {
		scheme quant.Scheme
		wantMB float64 // paper Table 2, batch 1
	}{
		{quant.OneBit(8, true), 32.42},
		{quant.NewBitScheme(true, 3, 3, 2), 18.47},
		{quant.NewBitScheme(true, 4, 4), 20.72},
		{quant.Ternary(), 4.51},
		{quant.Binary(), 4.06},
	}
	for _, c := range cases {
		var bits float64
		for _, sh := range shapes {
			bits += OneBatchComplexity(32, c.scheme, sh).PaperBits
		}
		mb := bits / 8 / (1 << 20)
		if math.Abs(mb-c.wantMB) > 0.35 {
			t.Errorf("%s: formula %.2f MB, paper %.2f MB", c.scheme.Name(), mb, c.wantMB)
		}
	}
}
