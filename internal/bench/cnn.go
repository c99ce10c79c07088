package bench

import (
	"fmt"

	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// TableCNNRow records one secure CNN inference measurement (extension
// experiment — the paper evaluates FC networks only).
type TableCNNRow struct {
	Scheme string
	Batch  int
	LANSec float64
	WANSec float64
	CommMB float64
}

// TableCNN measures secure inference over the SmallCNN architecture
// (conv 5x5 -> ReLU+pool fused in GC -> FC): convolution triplets reuse
// one OT per weight fragment across all 576 spatial positions — the
// paper's multi-batch insight applied to space.
func TableCNN(opt Options) []TableCNNRow {
	batches := []int{1, 8}
	channels := 4
	if opt.Quick {
		batches = []int{1}
		channels = 2
	}
	rg := ring.New(32)
	schemes := []quant.Scheme{quant.Binary(), quant.Ternary(), quant.Uniform(2, 4)}
	var rows []TableCNNRow
	for _, sc := range schemes {
		for _, batch := range batches {
			qm := referenceCNN(prg.New(prg.SeedFromInt(51)), sc, channels, 5)
			meas := runEndToEndModel(opt, fmt.Sprintf("cnn %s batch=%d", sc.Name(), batch),
				endToEnd{ring: rg, model: qm, batch: batch, variant: core.ReLUGC}).whole
			rows = append(rows, TableCNNRow{
				Scheme: sc.Name(),
				Batch:  batch,
				LANSec: meas.timeUnder(transport.LAN),
				WANSec: meas.timeUnder(transport.WANQuotient),
				CommMB: meas.CommMB(),
			})
		}
	}
	t := &table{header: []string{"scheme", "batch", "LAN(s)", "WAN(s)", "comm(MB)"}}
	for _, r := range rows {
		t.add(r.Scheme, fmt.Sprint(r.Batch), secs(r.LANSec), secs(r.WANSec), mb(r.CommMB))
	}
	fmt.Fprintf(opt.out(), "Extension: secure CNN (conv 5x5 + pool 2 + FC, %d channels), l=32\n%s\n", channels, t)
	return rows
}

// referenceCNN is the one CNN the tables build: conv k x k over a 28x28
// single-channel image into the given number of channels, ReLU and pool 2
// fused in the garbled circuit, then one FC layer to the class scores;
// weights and biases random in the scheme's range.
func referenceCNN(rng *prg.PRG, scheme quant.Scheme, channels, k int) *nn.QuantizedModel {
	conv := &nn.ConvSpec{Ci: 1, H: 28, W: 28, Kh: k, Kw: k, Stride: 1, Pad: 0}
	pooled := (28 - k + 1) / 2
	fcIn := channels * pooled * pooled
	return &nn.QuantizedModel{Frac: 8, Layers: []*nn.QuantizedLayer{
		{
			In: conv.InputSize(), Out: channels,
			W: randWeights(rng, scheme, channels*conv.ColRows()), B: randWeights(rng, scheme, channels),
			Scale: 1, ReLU: true, Scheme: scheme,
			Conv: conv, Pool: &nn.PoolSpec{K: 2},
		},
		{
			In: fcIn, Out: nn.NumClasses,
			W: randWeights(rng, scheme, nn.NumClasses*fcIn), B: randWeights(rng, scheme, nn.NumClasses),
			Scale: 1, Scheme: scheme,
		},
	}}
}
