// Package nn is the plaintext neural-network substrate: multilayer
// perceptrons and small CNNs (conv + non-overlapping max pooling) with
// ReLU activations, an SGD trainer, a deterministic synthetic dataset,
// and quantized fixed-point inference that exactly mirrors what the
// secure protocol computes over Z_{2^l}.
//
// Every layer is evaluated as a matrix multiplication over columns: a
// fully connected layer has one column, a convolution has one column per
// output position (im2col). The secure engine exploits exactly the same
// unification.
//
// The paper's evaluation network (its Figure 4) is a 3-layer MLP over
// 28x28 inputs; Fig4Network builds it.
package nn

import (
	"fmt"
	"math"

	"abnn2/internal/prg"
)

// Layer is one linear layer y = W*cols(x) + b with optional ReLU and max
// pooling over its Shape. For fully connected layers W is Out x In; for
// convolutions W is Out x (Ci*Kh*Kw). A float layer never requantizes.
type Layer struct {
	Shape
	W []float64
	B []float64 // one bias per output row (channel)
}

// NewFCLayer builds a fully connected layer.
func NewFCLayer(in, out int, relu bool) *Layer {
	return &Layer{Shape: Shape{In: in, Out: out, ReLU: relu}, W: make([]float64, out*in), B: make([]float64, out)}
}

// NewConvLayer builds a convolutional layer with co output channels and
// optional non-overlapping max pooling.
func NewConvLayer(spec ConvSpec, co int, relu bool, pool *PoolSpec) *Layer {
	return &Layer{
		Shape: Shape{In: spec.InputSize(), Out: co, ReLU: relu, Conv: &spec, Pool: pool},
		W:     make([]float64, co*spec.ColRows()),
		B:     make([]float64, co),
	}
}

// Model is a feed-forward stack of layers.
type Model struct {
	Layers []*Layer
}

// NewModel builds a fully connected model from layer sizes; every layer
// except the last gets a ReLU, matching the paper's FC-ReLU-FC-ReLU-FC
// structure.
func NewModel(sizes ...int) *Model {
	if len(sizes) < 2 {
		panic("nn: model needs at least input and output sizes")
	}
	var layers []*Layer
	for i := 0; i+1 < len(sizes); i++ {
		layers = append(layers, NewFCLayer(sizes[i], sizes[i+1], i+2 < len(sizes)))
	}
	return NewCustomModel(layers...)
}

// NewCustomModel assembles a model from explicit layers. Layers are built
// by library code, so a model ValidateShapes or CheckParams refuses is a
// programming error and panics.
func NewCustomModel(layers ...*Layer) *Model {
	m := &Model{Layers: layers}
	if err := m.validate(); err != nil {
		panic(err)
	}
	return m
}

// validate checks every layer's weight and bias counts and the model's
// geometry.
func (m *Model) validate() error {
	shapes := make([]Shape, len(m.Layers))
	for i, l := range m.Layers {
		if err := l.CheckParams(len(l.W), len(l.B)); err != nil {
			return fmt.Errorf("nn: layer %d: %w", i, err)
		}
		shapes[i] = l.Shape
	}
	return ValidateShapes(0, shapes)
}

// InitXavier initialises weights with Xavier/Glorot uniform scaling using
// deterministic randomness from rng.
func (m *Model) InitXavier(rng *prg.PRG) {
	for _, l := range m.Layers {
		bound := math.Sqrt(6.0 / float64(l.ColRows()+l.Out))
		for i := range l.W {
			u := float64(rng.Uint64()) / float64(math.MaxUint64)
			l.W[i] = (2*u - 1) * bound
		}
	}
}

// layerState is the per-layer forward trace the trainer needs.
type layerState struct {
	xcol    []float64 // n x P column matrix
	z       []float64 // Out x P pre-activation
	act     []float64 // flattened output (after relu+pool)
	poolIdx []int     // per pooled output, the within-z index of the max
}

// forwardLayer evaluates one layer, optionally recording state.
func (l *Layer) forwardLayer(x []float64, trace bool) layerState {
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: input size %d for layer expecting %d", len(x), l.In))
	}
	var xcol []float64
	if l.Conv != nil {
		xcol = l.Conv.Im2ColFloat(x)
	} else {
		xcol = x
	}
	n, p := l.ColRows(), l.Cols()
	z := make([]float64, l.Out*p)
	for o := 0; o < l.Out; o++ {
		row := l.W[o*n : (o+1)*n]
		for j := 0; j < p; j++ {
			acc := l.B[o]
			for i, w := range row {
				acc += w * xcol[i*p+j]
			}
			z[o*p+j] = acc
		}
	}
	// ReLU.
	act := z
	if l.ReLU {
		act = make([]float64, len(z))
		for i, v := range z {
			if v > 0 {
				act[i] = v
			}
		}
	}
	st := layerState{z: z}
	if trace {
		st.xcol = xcol
	}
	// Max pooling over the Out x OutH x OutW grid.
	if l.Pool != nil {
		windows := l.Pool.Windows(l.Out, l.Conv.OutH(), l.Conv.OutW())
		pooled := make([]float64, len(windows))
		idx := make([]int, len(windows))
		for wi, win := range windows {
			best := win[0]
			for _, ii := range win[1:] {
				if act[ii] > act[best] {
					best = ii
				}
			}
			pooled[wi] = act[best]
			idx[wi] = best
		}
		st.act = pooled
		st.poolIdx = idx
	} else {
		st.act = act
	}
	return st
}

// Forward runs the float forward pass, returning the output activations.
func (m *Model) Forward(x []float64) []float64 {
	for _, l := range m.Layers {
		x = l.forwardLayer(x, false).act
	}
	return x
}

// Predict returns the argmax class of the forward pass.
func (m *Model) Predict(x []float64) int {
	return argmax(m.Forward(x))
}

// Accuracy evaluates classification accuracy over a dataset.
func (m *Model) Accuracy(xs [][]float64, labels []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if m.Predict(x) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

func argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Fig4Network returns the paper's evaluation architecture (Figure 4):
// FC 784->128, ReLU, FC 128->128, ReLU, FC 128->10.
func Fig4Network() *Model { return NewModel(784, 128, 128, 10) }

// SmallCNN returns a compact CNN for the 28x28 synthetic dataset:
// Conv(1->co, 5x5, stride 1) + ReLU + MaxPool 2 -> FC(co*12*12 -> 10).
// It exercises every secure layer type (conv triplets, combined
// ReLU+pool GC, FC triplets).
func SmallCNN(co int) *Model {
	conv := ConvSpec{Ci: 1, H: 28, W: 28, Kh: 5, Kw: 5, Stride: 1, Pad: 0}
	return NewCustomModel(
		NewConvLayer(conv, co, true, &PoolSpec{K: 2}),
		NewFCLayer(co*12*12, NumClasses, false),
	)
}
