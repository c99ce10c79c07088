package testkit

import (
	"fmt"

	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
)

// RingWidths is the share-ring sweep the conformance harness covers: the
// byte-aligned rings, the paper's arbitrary-width case (33), and the
// word-size extremes.
var RingWidths = []uint{8, 16, 32, 33, 64}

// Case is one generated conformance scenario: a model plus the protocol
// parameters and inputs to run it under. Everything is a pure function
// of Seed, so a failure report carrying the seed is a full reproduction.
type Case struct {
	Seed     uint64
	RingBits uint
	Eta      int    // weight bitwidth of the scheme
	Scheme   string // scheme designation, e.g. "5(2,2,1)"
	Batch    int    // 1 exercises the one-batch (COT) path, >1 multi-batch
	Model    *nn.QuantizedModel
	Inputs   [][]float64
}

// Desc is a one-line human label for failure messages.
func (c *Case) Desc() string {
	kind := "fc"
	if c.Model.Layers[0].Conv != nil {
		kind = "conv"
	}
	return fmt.Sprintf("seed=%d ring=%d scheme=%s batch=%d layers=%d kind=%s",
		c.Seed, c.RingBits, c.Scheme, c.Batch, len(c.Model.Layers), kind)
}

// Generate deterministically builds the conformance case for a seed.
//
// Coverage is arranged so that any 40 consecutive seeds hit every
// (eta, ring) pair: eta cycles mod 8 and the ring mod 5, which are
// coprime. Within that frame the seed's PRG draws the scheme family
// (binary / ternary / random signed or unsigned fragmentation), the
// layer stack (1-3 FC layers, or a conv+pool front end on every sixth
// seed), weights, biases, and a batch of inputs.
//
// Generated layers never requantize (ReqC = 0): requantization carries a
// deliberate ±1 probabilistic-truncation slack (see nn.ForwardRing), and
// the differential checker asserts exact equality.
func Generate(seed uint64) *Case {
	rng := prg.New(prg.SeedFromInt(seed)).Child("testkit-model")
	c := &Case{
		Seed:     seed,
		RingBits: RingWidths[seed%uint64(len(RingWidths))],
		Eta:      int(seed%8) + 1,
	}
	scheme := pickScheme(rng, c.Eta)
	c.Scheme = scheme.Name()

	conv := seed%6 == 5
	if conv {
		c.Model = genConvModel(rng, scheme)
	} else {
		c.Model = genFCModel(rng, scheme)
	}
	c.Batch = 1 + rng.Intn(3)
	in := c.Model.InputSize()
	c.Inputs = make([][]float64, c.Batch)
	for k := range c.Inputs {
		x := make([]float64, in)
		for i := range x {
			// Uniform in about [-2, 2]; Frac-bit encoding rounds.
			x[i] = float64(rng.Intn(4097)-2048) / 1024.0
		}
		c.Inputs[k] = x
	}
	return c
}

// pickScheme draws a quantization scheme of exactly eta bits. Ternary is
// drawn at eta=2 (its range {-1,0,1} needs 2 bits) and binary at eta=1;
// otherwise eta is partitioned into random fragment widths, signed or
// unsigned.
func pickScheme(rng *prg.PRG, eta int) quant.Scheme {
	switch {
	case eta == 1 && rng.Intn(2) == 0:
		return quant.Binary()
	case eta == 2 && rng.Intn(3) == 0:
		return quant.Ternary()
	}
	widths := randomPartition(rng, eta)
	signed := rng.Intn(4) != 0 // mostly signed, as in the paper
	return quant.NewBitScheme(signed, widths...)
}

// randomPartition splits eta into fragment widths in [1,8], low bits
// first (paper convention).
func randomPartition(rng *prg.PRG, eta int) []uint {
	var widths []uint
	for eta > 0 {
		max := eta
		if max > 8 {
			max = 8
		}
		w := 1 + rng.Intn(max)
		widths = append(widths, uint(w))
		eta -= w
	}
	return widths
}

// genFCModel builds a stack of 1-3 fully connected layers with random
// small sizes, random ReLU placement, weights uniform over the scheme's
// range, and small biases.
func genFCModel(rng *prg.PRG, scheme quant.Scheme) *nn.QuantizedModel {
	depth := 1 + rng.Intn(3)
	sizes := make([]int, depth+1)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(6)
	}
	qm := &nn.QuantizedModel{Frac: uint(rng.Intn(4))}
	for d := 0; d < depth; d++ {
		l := &nn.QuantizedLayer{
			Shape:  nn.Shape{In: sizes[d], Out: sizes[d+1], ReLU: rng.Intn(2) == 0},
			Scale:  1,
			Scheme: scheme,
		}
		fillWeights(rng, l, scheme)
		qm.Layers = append(qm.Layers, l)
	}
	return qm
}

// genConvModel builds Conv(1->co, 2x2 over 5x5, stride 1) [+ MaxPool(2)]
// -> FC(...->out). The 4x4 conv output divides evenly for the pool.
func genConvModel(rng *prg.PRG, scheme quant.Scheme) *nn.QuantizedModel {
	conv := &nn.ConvSpec{Ci: 1, H: 5, W: 5, Kh: 2, Kw: 2, Stride: 1, Pad: 0}
	co := 1 + rng.Intn(2)
	l0 := &nn.QuantizedLayer{
		Shape:  nn.Shape{In: conv.InputSize(), Out: co, ReLU: true, Conv: conv},
		Scale:  1,
		Scheme: scheme,
	}
	if rng.Intn(2) == 0 {
		l0.Pool = &nn.PoolSpec{K: 2}
	}
	fillWeights(rng, l0, scheme)
	out := 1 + rng.Intn(4)
	l1 := &nn.QuantizedLayer{
		Shape:  nn.Shape{In: l0.OutputSize(), Out: out},
		Scale:  1,
		Scheme: scheme,
	}
	fillWeights(rng, l1, scheme)
	return &nn.QuantizedModel{Layers: []*nn.QuantizedLayer{l0, l1}, Frac: uint(rng.Intn(4))}
}

// fillWeights populates W uniformly over the scheme's representable
// range and B with small signed integers.
func fillWeights(rng *prg.PRG, l *nn.QuantizedLayer, scheme quant.Scheme) {
	min, max := scheme.Range()
	span := int(max - min + 1)
	l.W = make([]int64, l.Out*l.ColRows())
	for i := range l.W {
		l.W[i] = min + int64(rng.Intn(span))
	}
	l.B = make([]int64, l.Out)
	for i := range l.B {
		l.B[i] = int64(rng.Intn(17) - 8)
	}
}
