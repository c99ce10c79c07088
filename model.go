package abnn2

import (
	"fmt"

	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
)

// Model is a float multilayer perceptron with ReLU activations, the form
// in which networks are trained before quantization.
type Model struct{ m *nn.Model }

// NewMLP builds a model from layer sizes, e.g. NewMLP(784, 128, 128, 10)
// for the paper's evaluation network, initialised with Xavier weights
// from the given seed.
func NewMLP(sizes ...int) *Model {
	m := nn.NewModel(sizes...)
	m.InitXavier(prg.New(prg.SeedFromInt(0x5eed)))
	return &Model{m: m}
}

// Fig4Network returns the paper's 3-layer evaluation architecture.
func Fig4Network() *Model {
	m := nn.Fig4Network()
	m.InitXavier(prg.New(prg.SeedFromInt(0x5eed)))
	return &Model{m: m}
}

// NewSmallCNN returns a compact convolutional network for 28x28 inputs:
// Conv(1->channels, 5x5) + ReLU + MaxPool(2) -> FC(channels*12*12 -> 10).
// Convolutions run securely as im2col matrix triplets and pooling as a
// garbled-circuit max — both beyond the paper's FC-only evaluation.
func NewSmallCNN(channels int) *Model {
	m := nn.SmallCNN(channels)
	m.InitXavier(prg.New(prg.SeedFromInt(0x5eed)))
	return &Model{m: m}
}

// TrainOptions configures SGD training.
type TrainOptions struct {
	Epochs    int     // default 5
	BatchSize int     // default 32
	LR        float64 // default 0.05
	Seed      uint64  // default 1
}

// Train fits the model with minibatch SGD on softmax cross-entropy and
// returns the final average loss.
func (m *Model) Train(inputs [][]float64, labels []int, opt TrainOptions) float64 {
	cfg := nn.DefaultTrainConfig()
	if opt.Epochs > 0 {
		cfg.Epochs = opt.Epochs
	}
	if opt.BatchSize > 0 {
		cfg.BatchSize = opt.BatchSize
	}
	if opt.LR > 0 {
		cfg.LR = opt.LR
	}
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	return m.m.Train(inputs, labels, cfg)
}

// Accuracy evaluates float classification accuracy.
func (m *Model) Accuracy(inputs [][]float64, labels []int) float64 {
	return m.m.Accuracy(inputs, labels)
}

// Predict returns the argmax class for one input.
func (m *Model) Predict(x []float64) int { return m.m.Predict(x) }

// Quantize converts the model to integer weights under the named scheme
// ("binary", "ternary", "8(2,2,2,2)", "3(2,1)", ...) with the given
// fixed-point fractional bits for activations.
func (m *Model) Quantize(scheme string, fracBits uint) (*QuantizedModel, error) {
	s, err := quant.Parse(scheme)
	if err != nil {
		return nil, err
	}
	return &QuantizedModel{qm: nn.Quantize(m.m, s, fracBits)}, nil
}

// QuantizeRequant is Quantize plus per-layer requantization: activations
// are rescaled back to the 2^-fracBits fixed-point scale after every
// layer via local probabilistic truncation (SecureML-style), so deep
// networks fit small rings such as Z_2^32. The trade is a +-1-per-neuron
// truncation slack; predictions can differ from plaintext quantized
// inference in rare near-tie cases.
func (m *Model) QuantizeRequant(scheme string, fracBits uint) (*QuantizedModel, error) {
	s, err := quant.Parse(scheme)
	if err != nil {
		return nil, err
	}
	return &QuantizedModel{qm: nn.QuantizeRequant(m.m, s, fracBits, 6)}, nil
}

// MarshalJSON serialises the float model.
func (m *Model) MarshalJSON() ([]byte, error) { return nn.MarshalModel(m.m) }

// LoadModel parses a float model from JSON.
func LoadModel(data []byte) (*Model, error) {
	inner, err := nn.UnmarshalModel(data)
	if err != nil {
		return nil, err
	}
	return &Model{m: inner}, nil
}

// QuantizedModel is an integer-weight model ready for secure inference.
type QuantizedModel struct{ qm *nn.QuantizedModel }

// Arch returns the public architecture a client needs to Dial.
func (q *QuantizedModel) Arch() Arch { return core.ArchOf(q.qm) }

// Accuracy evaluates quantized (plaintext) classification accuracy —
// bit-identical to what the secure protocol computes.
func (q *QuantizedModel) Accuracy(inputs [][]float64, labels []int) float64 {
	return q.qm.Accuracy(inputs, labels)
}

// Predict runs plaintext quantized inference (argmax).
func (q *QuantizedModel) Predict(x []float64) int { return q.qm.Predict(x) }

// Scheme returns the quantization scheme designation.
func (q *QuantizedModel) Scheme() string { return q.qm.Layers[0].Scheme.Name() }

// MarshalJSON serialises the quantized model.
func (q *QuantizedModel) MarshalJSON() ([]byte, error) { return nn.MarshalQuantized(q.qm) }

// LoadQuantizedModel parses a quantized model from JSON, validating every
// weight against its scheme and the architecture by the rules a client
// applies before it dials (layer i takes what layer i-1 produces, conv
// geometry matches the declared input): a model no client could use
// fails here, at the operator's start-up, not at every Dial.
func LoadQuantizedModel(data []byte) (*QuantizedModel, error) {
	inner, err := nn.UnmarshalQuantized(data)
	if err != nil {
		return nil, err
	}
	return &QuantizedModel{qm: inner}, nil
}

// Dataset is a labelled input set.
type Dataset struct {
	Inputs [][]float64
	Labels []int
}

// SyntheticDataset generates the deterministic MNIST-shaped synthetic
// dataset used throughout the examples and benchmarks (28x28 images in
// [0,1], 10 classes). See DESIGN.md for why a synthetic stand-in is
// faithful for this paper's experiments.
func SyntheticDataset(n int, seed uint64) Dataset {
	ds := nn.SyntheticMNIST(n, 0.2, seed)
	return Dataset{Inputs: ds.X, Labels: ds.Labels}
}

// Split partitions a dataset at the fraction.
func (d Dataset) Split(trainFrac float64) (train, test Dataset) {
	if trainFrac < 0 || trainFrac > 1 {
		panic(fmt.Sprintf("abnn2: train fraction %v out of [0,1]", trainFrac))
	}
	cut := int(float64(len(d.Inputs)) * trainFrac)
	return Dataset{Inputs: d.Inputs[:cut], Labels: d.Labels[:cut]},
		Dataset{Inputs: d.Inputs[cut:], Labels: d.Labels[cut:]}
}
