package nn

import (
	"fmt"
	"math"

	"abnn2/internal/quant"
	"abnn2/internal/ring"
)

// QuantizedLayer is a layer with integer weights produced by a
// quant.Scheme. Bias is pre-scaled to the layer's output fixed-point
// scale so the server can add it to its share locally for free.
type QuantizedLayer struct {
	Shape
	W      []int64 // row-major quantized weights
	B      []int64 // bias in output-scale integer units
	Scale  float64 // weight dequantization scale
	Scheme quant.Scheme
}

// WMat converts the layer's weights into a ring matrix (two's complement
// embedding), the form consumed by both the secure protocol's plaintext
// reference and correctness checks.
func (l *QuantizedLayer) WMat(r ring.Ring) *ring.Mat {
	m := ring.NewMat(l.Out, l.ColRows())
	for i, w := range l.W {
		m.Data[i] = r.FromSigned(w)
	}
	return m
}

// QuantizedModel is the integer twin of a Model: the exact function the
// secure protocol evaluates over Z_{2^l}. Frac is the fixed-point
// fractional bit count used to encode the (float) input activations.
type QuantizedModel struct {
	Layers []*QuantizedLayer
	Frac   uint
}

// Quantize converts a float model to integer weights under the given
// scheme, calibrating each layer's scale to its largest weight magnitude.
// frac is the input fixed-point precision. Activations are NOT rescaled
// between layers (magnitudes grow layer by layer, as in the paper), so
// pick the ring large enough — Z_2^64 is always safe for the Figure 4
// network. For Z_2^32 operation see QuantizeRequant.
func Quantize(m *Model, scheme quant.Scheme, frac uint) *QuantizedModel {
	return quantize(m, scheme, frac, 0)
}

// QuantizeRequant converts a float model like Quantize but inserts a
// public requantization c/2^t ~= scale after every layer, returning
// activations to the 2^-frac fixed-point scale. Shares are rescaled
// locally via SecureML-style probabilistic truncation, so deep networks
// fit small rings (Z_2^32). cBits bounds the multiplier width: raw-output
// bits + cBits must stay below l-1 (6 is safe for the Figure 4 network on
// Z_2^32).
func QuantizeRequant(m *Model, scheme quant.Scheme, frac uint, cBits uint) *QuantizedModel {
	if cBits == 0 {
		cBits = 6
	}
	return quantize(m, scheme, frac, cBits)
}

func quantize(m *Model, scheme quant.Scheme, frac uint, cBits uint) *QuantizedModel {
	qm := &QuantizedModel{Frac: frac}
	// Output scale of the previous layer in real units per integer unit;
	// inputs are encoded as x*2^frac, so the initial scale is 2^-frac.
	actScale := 1.0 / float64(uint64(1)<<frac)
	for _, l := range m.Layers {
		q := quant.NewQuantizer(scheme, quant.MaxAbs(l.W))
		ql := &QuantizedLayer{
			Shape:  l.Shape,
			W:      q.QuantizeAll(l.W),
			B:      make([]int64, l.Out),
			Scale:  q.Scale,
			Scheme: scheme,
		}
		// This layer's raw outputs carry scale actScale * q.Scale.
		outScale := actScale * q.Scale
		for i, b := range l.B {
			ql.B[i] = int64(math.Round(b / outScale))
		}
		if cBits > 0 {
			ql.ReqC, ql.ReqT = requantParams(q.Scale, cBits)
			outScale *= float64(uint64(1)<<ql.ReqT) / float64(ql.ReqC)
		}
		actScale = outScale
		qm.Layers = append(qm.Layers, ql)
	}
	return qm
}

// requantParams approximates scale by c/2^t with c of about cBits bits.
func requantParams(scale float64, cBits uint) (uint64, uint) {
	if scale <= 0 {
		return 1, 0
	}
	// Want c = scale * 2^t in [2^(cBits-1), 2^cBits).
	t := int(cBits) - 1 - int(math.Floor(math.Log2(scale)))
	if t < 0 {
		t = 0
	}
	if t > 62 {
		t = 62
	}
	c := uint64(math.Round(scale * math.Pow(2, float64(t))))
	if c == 0 {
		c = 1
	}
	return c, uint(t)
}

// ForwardRing evaluates the quantized network over the ring exactly as the
// secure protocol does: matrix multiply mod 2^l, local bias add, optional
// requantization, ReLU on the two's-complement sign. Without
// requantization this is bit-exact against the secure pipeline; with it,
// the secure result may differ by one unit per truncation (the SecureML
// probabilistic-truncation slack).
func (qm *QuantizedModel) ForwardRing(r ring.Ring, x ring.Vec) ring.Vec {
	for _, l := range qm.Layers {
		if len(x) != l.In {
			panic(fmt.Sprintf("nn: input size %d for %dx%d quantized layer", len(x), l.Out, l.In))
		}
		// Columnise: FC uses the vector directly, conv expands im2col.
		var xcol *ring.Mat
		p := l.Cols()
		if l.Conv != nil {
			xcol = &ring.Mat{Rows: l.ColRows(), Cols: p, Data: l.Conv.Im2ColRing(x)}
		} else {
			xcol = &ring.Mat{Rows: l.In, Cols: 1, Data: x}
		}
		ym := r.MulMat(l.WMat(r), xcol)
		y := ym.Data // Out x P, row-major = channel-major flattening
		for o := 0; o < l.Out; o++ {
			b := r.FromSigned(l.B[o])
			for j := 0; j < p; j++ {
				y[o*p+j] = r.Add(y[o*p+j], b)
			}
		}
		if l.ReqC != 0 {
			for i := range y {
				// floor(signed(y)*c / 2^t), the exact reference of the
				// two-share local truncation.
				v := r.Signed(r.MulConst(l.ReqC, y[i]))
				y[i] = r.FromSigned(v >> l.ReqT)
			}
		}
		if l.ReLU {
			for i := range y {
				if r.IsNegative(y[i]) {
					y[i] = 0
				}
			}
		}
		if l.Pool != nil {
			windows := l.Pool.Windows(l.Out, l.Conv.OutH(), l.Conv.OutW())
			pooled := make(ring.Vec, len(windows))
			for wi, win := range windows {
				best := y[win[0]]
				for _, ii := range win[1:] {
					if r.Signed(y[ii]) > r.Signed(best) {
						best = y[ii]
					}
				}
				pooled[wi] = best
			}
			x = pooled
		} else {
			x = y
		}
	}
	return x
}

// EncodeInput converts a float input vector into ring elements at the
// model's fixed-point precision.
func (qm *QuantizedModel) EncodeInput(r ring.Ring, x []float64) ring.Vec {
	fp := ring.NewFixedPoint(r, qm.Frac)
	out := make(ring.Vec, len(x))
	for i, v := range x {
		out[i] = fp.Encode(v)
	}
	return out
}

// Predict runs fixed-point inference over Z_{2^64} and returns the argmax
// class. With 64-bit arithmetic the 3-layer evaluation network cannot
// overflow for 8-bit weights, so this matches the secure protocol's
// output exactly.
func (qm *QuantizedModel) Predict(x []float64) int {
	r := ring.New(64)
	out := qm.ForwardRing(r, qm.EncodeInput(r, x))
	best, bestV := 0, r.Signed(out[0])
	for i := 1; i < len(out); i++ {
		if v := r.Signed(out[i]); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Accuracy evaluates quantized classification accuracy.
func (qm *QuantizedModel) Accuracy(xs [][]float64, labels []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if qm.Predict(x) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// InputSize returns the expected input dimension.
func (qm *QuantizedModel) InputSize() int { return qm.Layers[0].In }

// Shapes returns the model's public layer geometry.
func (qm *QuantizedModel) Shapes() []Shape {
	shapes := make([]Shape, len(qm.Layers))
	for i, l := range qm.Layers {
		shapes[i] = l.Shape
	}
	return shapes
}
