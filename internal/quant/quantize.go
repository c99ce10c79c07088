package quant

import (
	"fmt"
	"math"
	"slices"
)

// Quantizer converts floating-point weights to scheme-representable
// integers by uniform symmetric quantization: q = clamp(round(w/scale)).
// The dequantized weight is q*scale, so the fixed-point pipeline multiplies
// activations by q and folds scale into the layer's output interpretation.
type Quantizer struct {
	Scheme Scheme
	Scale  float64
}

// NewQuantizer chooses the scale so that maxAbs (the largest weight
// magnitude to represent) maps to the edge of the scheme's range.
func NewQuantizer(s Scheme, maxAbs float64) Quantizer {
	min, max := s.Range()
	// The binding constraint is the smaller magnitude side.
	edge := float64(max)
	if min != 0 && -float64(min) < edge {
		edge = -float64(min)
	}
	if edge == 0 || maxAbs == 0 {
		return Quantizer{Scheme: s, Scale: 1}
	}
	return Quantizer{Scheme: s, Scale: maxAbs / edge}
}

// Quantize maps a float weight to the nearest representable integer.
func (q Quantizer) Quantize(w float64) int64 {
	min, max := q.Scheme.Range()
	v := int64(math.Round(w / q.Scale))
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return v
}

// QuantizeAll quantizes a weight slice, returning the integer weights.
func (q Quantizer) QuantizeAll(ws []float64) []int64 {
	out := make([]int64, len(ws))
	for i, w := range ws {
		out[i] = q.Quantize(w)
	}
	return out
}

// MaxAbs returns the largest magnitude in ws, used to calibrate a
// quantizer for a layer.
func MaxAbs(ws []float64) float64 {
	var m float64
	for _, w := range ws {
		if a := math.Abs(w); a > m {
			m = a
		}
	}
	return m
}

// AppendChoices appends the OT choices of weights ws[lo:hi] under s to
// dst: fragment f of weight j is choice (j-lo)*Gamma()+f of what it
// appends. It fails on the first out-of-range weight, naming its index
// in ws.
func AppendChoices(s Scheme, dst []int, ws []int64, lo, hi int) ([]int, error) {
	dst = slices.Grow(dst, (hi-lo)*s.Gamma())
	for j, w := range ws[lo:hi] {
		var err error
		if dst, err = s.AppendDecompose(dst, w); err != nil {
			return nil, fmt.Errorf("quant: weight %d: %w", lo+j, err)
		}
	}
	return dst, nil
}
