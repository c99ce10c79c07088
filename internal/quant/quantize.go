package quant

import (
	"fmt"
	"math"
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

// DecomposeAll decomposes a slice of quantized weights, returning a
// gamma-per-weight choice matrix: choices[j] are the fragment indices of
// weight j. It fails fast on any out-of-range weight. A layer holds far
// more weights than distinct values, so equal weights share one row:
// callers must not modify the rows.
func DecomposeAll(s Scheme, ws []int64) ([][]int, error) {
	out := make([][]int, len(ws))
	rows := make(map[int64][]int)
	for j, w := range ws {
		c, ok := rows[w]
		if !ok {
			var err error
			if c, err = s.Decompose(w); err != nil {
				return nil, fmt.Errorf("quant: weight %d: %w", j, err)
			}
			rows[w] = c
		}
		out[j] = c
	}
	return out, nil
}
