package bench

import (
	"fmt"

	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
)

// AccuracyRow reports classification quality for one quantization scheme
// and the secure/plaintext agreement rate.
type AccuracyRow struct {
	Scheme      string
	FloatAcc    float64
	QuantAcc    float64
	SecureMatch float64 // fraction of secure predictions equal to plaintext quantized
}

// Accuracy reproduces the paper's *motivation* (section 1: quantization
// "provides a much more efficient solution ... practically and
// securely"): it trains the Figure 4 network on the synthetic dataset,
// quantizes it at every bitwidth, reports the accuracy ladder, and runs
// a batch through the secure protocol to confirm prediction-level
// equality with plaintext quantized inference.
func Accuracy(opt Options) []AccuracyRow {
	trainN, testN, secureN := 2000, 400, 16
	hidden := 128
	epochs := 3
	if opt.Quick {
		trainN, testN, secureN = 400, 100, 4
		hidden = 24
		epochs = 2
	}
	ds := nn.SyntheticMNIST(trainN+testN, 0.25, 42)
	model := nn.NewModel(nn.ImagePixels, hidden, hidden, nn.NumClasses)
	model.InitXavier(prg.New(prg.SeedFromInt(1)))
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = epochs
	model.Train(ds.X[:trainN], ds.Labels[:trainN], cfg)
	testX, testY := ds.X[trainN:], ds.Labels[trainN:]
	floatAcc := model.Accuracy(testX, testY)

	schemes := []quant.Scheme{
		quant.Binary(), quant.Ternary(),
		quant.NewBitScheme(true, 2, 1),
		quant.Uniform(2, 2), quant.Uniform(2, 3), quant.Uniform(2, 4),
	}
	var rows []AccuracyRow
	for _, sc := range schemes {
		qm := nn.Quantize(model, sc, 8)
		qAcc := qm.Accuracy(testX, testY)
		match := secureAgreement(qm, testX[:secureN], opt)
		rows = append(rows, AccuracyRow{
			Scheme:      sc.Name(),
			FloatAcc:    floatAcc,
			QuantAcc:    qAcc,
			SecureMatch: match,
		})
	}
	t := &table{header: []string{"scheme", "float acc", "quant acc", "secure==plain"}}
	for _, r := range rows {
		t.add(r.Scheme, fmt.Sprintf("%.1f%%", 100*r.FloatAcc),
			fmt.Sprintf("%.1f%%", 100*r.QuantAcc), fmt.Sprintf("%.0f%%", 100*r.SecureMatch))
	}
	fmt.Fprintf(opt.out(), "Accuracy ladder (synthetic MNIST-shaped data, Fig.4-style network)\n%s\n", t)
	return rows
}

// secureAgreement runs one secure batch and returns the fraction of
// predictions identical to plaintext quantized inference (expected: 1.0,
// the protocol is exact over Z_2^64).
func secureAgreement(qm *nn.QuantizedModel, inputs [][]float64, opt Options) float64 {
	rg := ring.New(64)
	X := ring.NewMat(core.ArchOf(qm).InputSize(), len(inputs))
	fp := ring.NewFixedPoint(rg, qm.Frac)
	for k, x := range inputs {
		for i, v := range x {
			X.Set(i, k, fp.Encode(v))
		}
	}
	out := runEndToEndModel(opt, "accuracy "+qm.Layers[0].Scheme.Name(),
		endToEnd{ring: rg, model: qm, inputs: X, variant: core.ReLUGC}).out
	agree := 0
	for k, x := range inputs {
		best := 0
		for i := 1; i < out.Rows; i++ {
			if rg.Signed(out.At(i, k)) > rg.Signed(out.At(best, k)) {
				best = i
			}
		}
		if best == qm.Predict(x) {
			agree++
		}
	}
	return float64(agree) / float64(len(inputs))
}
