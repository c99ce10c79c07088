package nn

import "fmt"

// Shape is the public geometry of one layer: everything about it both
// parties know, while its weights and biases stay with the server. The
// float layer, the quantized layer and the architecture a server sends
// its clients all carry this one type, and ValidateShapes checks it.
// The field order is the wire order of the hello's "arch" layers.
type Shape struct {
	In, Out int // input vector length; output channels (rows of W)
	ReLU    bool

	// ReqC/ReqT, when ReqC != 0, requantize the layer output by the
	// public rational ReqC/2^ReqT, returning activations to the input
	// fixed-point scale. Both parties apply it locally to their shares
	// (SecureML-style truncation); see internal/core/truncate.go.
	ReqC uint64
	ReqT uint

	// Conv marks a convolutional layer (weights are Out x Ci*Kh*Kw,
	// applied per position over an im2col expansion, In = Ci*H*W); Pool
	// applies non-overlapping max pooling after the activation and
	// requires Conv (pooling needs a spatial grid).
	Conv *ConvSpec `json:",omitempty"`
	Pool *PoolSpec `json:",omitempty"`
}

// maxDim bounds a layer's input and output lengths.
const maxDim = 1 << 24

// ColRows returns the matmul inner dimension: In for FC layers,
// Ci*Kh*Kw for convolutions.
func (s Shape) ColRows() int {
	if s.Conv == nil {
		return s.In
	}
	return s.Conv.ColRows()
}

// Cols returns the matmul column count per sample: 1 for FC layers,
// the number of output positions for convolutions.
func (s Shape) Cols() int {
	if s.Conv == nil {
		return 1
	}
	return s.Conv.Positions()
}

// OutputSize returns the flattened per-sample output length after
// pooling.
func (s Shape) OutputSize() int {
	p := s.Cols()
	if s.Pool != nil {
		p /= s.Pool.K * s.Pool.K
	}
	return s.Out * p
}

// Reshares reports whether the layer ends in a GC junction — a ReLU or a
// pool, with or without its fused ReLU — after which the client's share
// of the next layer's input is a fresh z1 it chose offline rather than its
// triplet share.
func (s Shape) Reshares() bool { return s.ReLU || s.Pool != nil }

// CheckParams reports whether a layer of this shape may hold the given
// numbers of weights (Out x ColRows) and biases (one per output row).
func (s Shape) CheckParams(weights, biases int) error {
	if weights != s.Out*s.ColRows() || biases != s.Out {
		return fmt.Errorf("nn: %d weights and %d biases for a %dx%d layer",
			weights, biases, s.Out, s.ColRows())
	}
	return nil
}

// ValidateShapes checks a network's public geometry, every rule in one
// place: a model file, a model built in code and an architecture read
// off the wire all pass through it. frac is the input fixed-point
// precision (0 for a float model).
func ValidateShapes(frac uint, shapes []Shape) error {
	if len(shapes) == 0 {
		return fmt.Errorf("nn: model has no layers")
	}
	if frac > 62 {
		return fmt.Errorf("nn: fixed-point precision %d too large", frac)
	}
	for i, l := range shapes {
		if l.In <= 0 || l.Out <= 0 || l.In > maxDim || l.Out > maxDim {
			return fmt.Errorf("nn: layer %d has invalid shape %dx%d", i, l.Out, l.In)
		}
		if l.ReqT > 62 {
			return fmt.Errorf("nn: layer %d requant shift %d too large", i, l.ReqT)
		}
		if l.Conv != nil {
			if err := l.Conv.Validate(); err != nil {
				return fmt.Errorf("nn: layer %d: %w", i, err)
			}
			if l.In != l.Conv.InputSize() {
				return fmt.Errorf("nn: layer %d input %d does not match conv geometry %d",
					i, l.In, l.Conv.InputSize())
			}
			if !withinDim(l.Out, l.Cols()) {
				return fmt.Errorf("nn: layer %d output %d x %d positions is above %d", i, l.Out, l.Cols(), maxDim)
			}
		}
		if l.Pool != nil {
			if l.Conv == nil {
				return fmt.Errorf("nn: layer %d pools without a convolution", i)
			}
			if err := l.Pool.Validate(l.Conv.OutH(), l.Conv.OutW()); err != nil {
				return fmt.Errorf("nn: layer %d: %w", i, err)
			}
		}
		if i > 0 && shapes[i-1].OutputSize() != l.In {
			return fmt.Errorf("nn: layer %d expects %d inputs, previous layer outputs %d",
				i, l.In, shapes[i-1].OutputSize())
		}
	}
	return nil
}
