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
			meas, err := runSecureCNN(rg, sc, channels, batch, opt)
			if err != nil {
				panic(fmt.Sprintf("bench: cnn %s batch %d: %v", sc.Name(), batch, err))
			}
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

// runSecureCNN builds a random in-range quantized CNN and measures one
// offline+online secure inference.
func runSecureCNN(rg ring.Ring, scheme quant.Scheme, channels, batch int, opt Options) (measurement, error) {
	rng := prg.New(prg.SeedFromInt(51))
	min, max := scheme.Range()
	span := int(max - min + 1)
	randW := func(n int) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = min + int64(rng.Intn(span))
		}
		return w
	}
	conv := &nn.ConvSpec{Ci: 1, H: 28, W: 28, Kh: 5, Kw: 5, Stride: 1, Pad: 0}
	fcIn := channels * 12 * 12
	qm := &nn.QuantizedModel{Frac: 8, Layers: []*nn.QuantizedLayer{
		{
			In: conv.InputSize(), Out: channels,
			W: randW(channels * conv.ColRows()), B: randW(channels),
			Scale: 1, ReLU: true, Scheme: scheme,
			Conv: conv, Pool: &nn.PoolSpec{K: 2},
		},
		{
			In: fcIn, Out: nn.NumClasses,
			W: randW(nn.NumClasses * fcIn), B: randW(nn.NumClasses),
			Scale: 1, Scheme: scheme,
		},
	}}
	return runEndToEndModel(rg, qm, batch, core.ReLUGC, nil, 0, opt,
		fmt.Sprintf("cnn %s batch=%d", scheme.Name(), batch))
}
