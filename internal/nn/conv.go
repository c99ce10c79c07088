package nn

import (
	"fmt"

	"abnn2/internal/ring"
)

// Convolution and pooling support. A convolution is evaluated as a
// matrix multiplication over an im2col expansion: the expansion is a
// *public* rearrangement of the input, so in the secure protocol both
// parties apply it locally to their shares and the existing triplet
// machinery handles the rest (see internal/core/inference.go).
//
// Feature maps are flattened channel-major: index = c*(H*W) + y*W + x.

// ConvSpec describes a 2D convolution's geometry. The weight matrix of
// the owning layer is Co x (Ci*Kh*Kw), applied at every output position.
// The json keys are the model file's; decoding matches them
// case-insensitively, so a hello's "Ci" reads as "ci".
type ConvSpec struct {
	Ci     int `json:"ci"` // input channels
	H      int `json:"h"`  // input height
	W      int `json:"w"`  // input width
	Kh     int `json:"kh"` // kernel height
	Kw     int `json:"kw"` // kernel width
	Stride int `json:"stride"`
	Pad    int `json:"pad"`
}

// OutH returns the output feature-map height.
func (c ConvSpec) OutH() int { return (c.H+2*c.Pad-c.Kh)/c.Stride + 1 }

// OutW returns the output feature-map width.
func (c ConvSpec) OutW() int { return (c.W+2*c.Pad-c.Kw)/c.Stride + 1 }

// Positions returns the number of output spatial positions P.
func (c ConvSpec) Positions() int { return c.OutH() * c.OutW() }

// ColRows returns the im2col row count n = Ci*Kh*Kw.
func (c ConvSpec) ColRows() int { return c.Ci * c.Kh * c.Kw }

// InputSize returns the flattened input length Ci*H*W.
func (c ConvSpec) InputSize() int { return c.Ci * c.H * c.W }

// Validate checks the geometry. Every field is bounded by maxDim first,
// so that the sizes built from them cannot overflow, and then the input,
// the im2col rows and the output grid are.
func (c ConvSpec) Validate() error {
	if c.Ci <= 0 || c.H <= 0 || c.W <= 0 || c.Kh <= 0 || c.Kw <= 0 {
		return fmt.Errorf("nn: conv dimensions must be positive: %+v", c)
	}
	if c.Stride <= 0 {
		return fmt.Errorf("nn: conv stride must be positive")
	}
	if c.Pad < 0 {
		return fmt.Errorf("nn: conv padding must be non-negative")
	}
	if max(c.Ci, c.H, c.W, c.Kh, c.Kw, c.Stride, c.Pad) > maxDim {
		return fmt.Errorf("nn: conv field above %d: %+v", maxDim, c)
	}
	if c.Kh > c.H+2*c.Pad || c.Kw > c.W+2*c.Pad {
		return fmt.Errorf("nn: kernel %dx%d larger than padded input %dx%d", c.Kh, c.Kw, c.H+2*c.Pad, c.W+2*c.Pad)
	}
	if !withinDim(c.Ci, c.H, c.W) || !withinDim(c.Ci, c.Kh, c.Kw) || !withinDim(c.OutH(), c.OutW()) {
		return fmt.Errorf("nn: conv input, im2col rows or output grid above %d: %+v", maxDim, c)
	}
	return nil
}

// withinDim reports whether the product of positive factors is at most
// maxDim. Each factor is compared with what the partial product leaves
// of maxDim before it multiplies, so that nothing overflows, not even a
// 32-bit int.
func withinDim(factors ...int) bool {
	p := 1
	for _, f := range factors {
		if f > maxDim/p {
			return false
		}
		p *= f
	}
	return true
}

// colIndex returns the flattened input index for im2col row r at output
// position p, or -1 for a padding cell.
func (c ConvSpec) colIndex(r, p int) int {
	kw := r % c.Kw
	kh := (r / c.Kw) % c.Kh
	ci := r / (c.Kw * c.Kh)
	ow := c.OutW()
	px := p % ow
	py := p / ow
	y := py*c.Stride + kh - c.Pad
	x := px*c.Stride + kw - c.Pad
	if y < 0 || y >= c.H || x < 0 || x >= c.W {
		return -1
	}
	return ci*(c.H*c.W) + y*c.W + x
}

// Im2ColFloat expands one flattened sample into the n x P column matrix
// (row-major, n rows of P values).
func (c ConvSpec) Im2ColFloat(x []float64) []float64 {
	n, p := c.ColRows(), c.Positions()
	out := make([]float64, n*p)
	for r := 0; r < n; r++ {
		for j := 0; j < p; j++ {
			if idx := c.colIndex(r, j); idx >= 0 {
				out[r*p+j] = x[idx]
			}
		}
	}
	return out
}

// Col2ImFloat scatters gradients from column space back to input space
// (the transpose of Im2ColFloat), accumulating overlaps.
func (c ConvSpec) Col2ImFloat(col []float64) []float64 {
	n, p := c.ColRows(), c.Positions()
	out := make([]float64, c.InputSize())
	for r := 0; r < n; r++ {
		for j := 0; j < p; j++ {
			if idx := c.colIndex(r, j); idx >= 0 {
				out[idx] += col[r*p+j]
			}
		}
	}
	return out
}

// Im2ColRing expands a ring-element sample; padding cells become 0,
// which is correct on additive shares because both parties insert the
// same zeros (0 + 0 = 0).
func (c ConvSpec) Im2ColRing(x ring.Vec) ring.Vec {
	n, p := c.ColRows(), c.Positions()
	out := make(ring.Vec, n*p)
	for r := 0; r < n; r++ {
		for j := 0; j < p; j++ {
			if idx := c.colIndex(r, j); idx >= 0 {
				out[r*p+j] = x[idx]
			}
		}
	}
	return out
}

// PoolSpec describes non-overlapping max pooling (stride = window) on a
// Co x Oh x Ow feature map. Non-overlap means every input belongs to
// exactly one window, which the secure pooling protocol relies on.
type PoolSpec struct {
	K int `json:"k"` // window edge (K x K), stride K
}

// Validate checks the pool against the grid it is applied to.
func (p PoolSpec) Validate(oh, ow int) error {
	if p.K <= 1 {
		return fmt.Errorf("nn: pool window must be > 1")
	}
	if oh%p.K != 0 || ow%p.K != 0 {
		return fmt.Errorf("nn: pool %d does not divide feature map %dx%d", p.K, oh, ow)
	}
	return nil
}

// Windows enumerates, for a Co x Oh x Ow map flattened channel-major,
// the input indices of every pooling window, in output order
// (channel-major over the pooled grid).
func (p PoolSpec) Windows(co, oh, ow int) [][]int {
	ph, pw := oh/p.K, ow/p.K
	out := make([][]int, 0, co*ph*pw)
	for c := 0; c < co; c++ {
		base := c * oh * ow
		for py := 0; py < ph; py++ {
			for px := 0; px < pw; px++ {
				win := make([]int, 0, p.K*p.K)
				for dy := 0; dy < p.K; dy++ {
					for dx := 0; dx < p.K; dx++ {
						win = append(win, base+(py*p.K+dy)*ow+(px*p.K+dx))
					}
				}
				out = append(out, win)
			}
		}
	}
	return out
}
