package nn

import (
	"math"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
)

func TestForwardKnown(t *testing.T) {
	m := NewModel(2, 2, 1)
	// Layer 0: identity-ish with ReLU.
	m.Layers[0].W = []float64{1, 0, 0, 1}
	m.Layers[0].B = []float64{0, -1}
	// Layer 1: sum.
	m.Layers[1].W = []float64{1, 1}
	m.Layers[1].B = []float64{0.5}
	out := m.Forward([]float64{2, 0.5})
	// h = ReLU([2, -0.5]) = [2, 0]; y = 2 + 0 + 0.5 = 2.5.
	if math.Abs(out[0]-2.5) > 1e-12 {
		t.Fatalf("forward = %v, want 2.5", out[0])
	}
}

func TestModelShapes(t *testing.T) {
	m := Fig4Network()
	if len(m.Layers) != 3 {
		t.Fatalf("fig4 layers = %d", len(m.Layers))
	}
	dims := [][2]int{{784, 128}, {128, 128}, {128, 10}}
	for i, l := range m.Layers {
		if l.In != dims[i][0] || l.Out != dims[i][1] {
			t.Errorf("layer %d: %dx%d", i, l.Out, l.In)
		}
		wantReLU := i < 2
		if l.ReLU != wantReLU {
			t.Errorf("layer %d relu = %v", i, l.ReLU)
		}
	}
}

func TestSyntheticDatasetDeterministic(t *testing.T) {
	a := SyntheticMNIST(10, 0.1, 5)
	b := SyntheticMNIST(10, 0.1, 5)
	for i := range a.X {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ across identical seeds")
		}
		for p := range a.X[i] {
			if a.X[i][p] != b.X[i][p] {
				t.Fatal("pixels differ across identical seeds")
			}
		}
	}
	c := SyntheticMNIST(10, 0.1, 6)
	same := true
	for p := range a.X[0] {
		if a.X[0][p] != c.X[0][p] {
			same = false
			break
		}
	}
	if same && a.Labels[0] == c.Labels[0] {
		t.Error("different seeds produced identical first samples")
	}
}

func TestDatasetRangesAndSplit(t *testing.T) {
	ds := SyntheticMNIST(50, 0.25, 7)
	for i, x := range ds.X {
		if len(x) != ImagePixels {
			t.Fatalf("sample %d has %d pixels", i, len(x))
		}
		for _, v := range x {
			if v < 0 || v > 1 {
				t.Fatalf("pixel %v out of [0,1]", v)
			}
		}
		if ds.Labels[i] < 0 || ds.Labels[i] >= NumClasses {
			t.Fatalf("label %d out of range", ds.Labels[i])
		}
	}
	train, test := ds.Split(0.8)
	if len(train.X) != 40 || len(test.X) != 10 {
		t.Fatalf("split sizes %d/%d", len(train.X), len(test.X))
	}
}

// Training on the synthetic task must reach high accuracy; this exercises
// forward, backward, and the dataset end to end. Uses a smaller network
// than Fig4 to keep the test fast.
func TestTrainingLearns(t *testing.T) {
	ds := SyntheticMNIST(600, 0.2, 11)
	train, test := ds.Split(0.8)
	m := NewModel(ImagePixels, 32, NumClasses)
	m.InitXavier(prg.New(prg.SeedFromInt(1)))
	before := m.Accuracy(test.X, test.Labels)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	m.Train(train.X, train.Labels, cfg)
	after := m.Accuracy(test.X, test.Labels)
	if after < 0.8 {
		t.Errorf("accuracy after training = %.3f (before %.3f), want >= 0.8", after, before)
	}
	if after <= before {
		t.Errorf("training did not improve accuracy: %.3f -> %.3f", before, after)
	}
}

func TestQuantizePreservesPrediction(t *testing.T) {
	ds := SyntheticMNIST(400, 0.2, 13)
	train, test := ds.Split(0.75)
	m := NewModel(ImagePixels, 32, NumClasses)
	m.InitXavier(prg.New(prg.SeedFromInt(2)))
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	m.Train(train.X, train.Labels, cfg)
	floatAcc := m.Accuracy(test.X, test.Labels)
	qm := Quantize(m, quant.NewBitScheme(true, 2, 2, 2, 2), 8)
	qAcc := qm.Accuracy(test.X, test.Labels)
	if qAcc < floatAcc-0.1 {
		t.Errorf("8-bit quantization dropped accuracy too far: float %.3f -> quant %.3f", floatAcc, qAcc)
	}
}

func TestQuantizedWeightsInRange(t *testing.T) {
	m := NewModel(4, 3, 2)
	m.InitXavier(prg.New(prg.SeedFromInt(3)))
	for _, scheme := range []quant.Scheme{quant.Binary(), quant.Ternary(), quant.Uniform(2, 2)} {
		qm := Quantize(m, scheme, 8)
		for li, l := range qm.Layers {
			if _, err := quant.DecomposeAll(scheme, l.W); err != nil {
				t.Errorf("%s layer %d: %v", scheme.Name(), li, err)
			}
		}
	}
}

func TestForwardRingMatchesInt(t *testing.T) {
	// Small handcrafted network evaluated both by ForwardRing and by a
	// direct int64 computation.
	qm := &QuantizedModel{
		Frac: 4,
		Layers: []*QuantizedLayer{
			{In: 3, Out: 2, W: []int64{1, -2, 3, 0, 1, -1}, B: []int64{5, -5}, Scale: 1, ReLU: true, Scheme: quant.Uniform(2, 2)},
			{In: 2, Out: 1, W: []int64{2, -3}, B: []int64{1}, Scale: 1, ReLU: false, Scheme: quant.Uniform(2, 2)},
		},
	}
	r := ring.New(32)
	x := []int64{10, -20, 5}
	xe := make(ring.Vec, 3)
	for i, v := range x {
		xe[i] = r.FromSigned(v)
	}
	out := qm.ForwardRing(r, xe)
	// h0 = 10+40+15+5 = 70; h1 = -20-5-5 = -30 -> 0.
	// y = 2*70 - 0 + 1 = 141.
	if got := r.Signed(out[0]); got != 141 {
		t.Fatalf("ForwardRing = %d, want 141", got)
	}
}

func TestEncodeInputAndScale(t *testing.T) {
	qm := &QuantizedModel{Frac: 8, Layers: []*QuantizedLayer{
		{In: 1, Out: 1, W: []int64{1}, B: []int64{0}, Scale: 0.5, Scheme: quant.Uniform(2, 2)},
	}}
	r := ring.New(32)
	enc := qm.EncodeInput(r, []float64{1.5})
	if r.Signed(enc[0]) != 384 {
		t.Fatalf("encoded 1.5 -> %d, want 384", r.Signed(enc[0]))
	}
}

func TestModelSerializationRoundTrip(t *testing.T) {
	m := NewModel(3, 4, 2)
	m.InitXavier(prg.New(prg.SeedFromInt(4)))
	data, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.2, 0.3}
	a, b := m.Forward(x), m2.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("forward differs after roundtrip")
		}
	}
}

func TestQuantizedSerializationRoundTrip(t *testing.T) {
	m := NewModel(3, 4, 2)
	m.InitXavier(prg.New(prg.SeedFromInt(5)))
	qm := Quantize(m, quant.NewBitScheme(true, 3, 3, 2), 8)
	data, err := MarshalQuantized(qm)
	if err != nil {
		t.Fatal(err)
	}
	qm2, err := UnmarshalQuantized(data)
	if err != nil {
		t.Fatal(err)
	}
	if qm2.Layers[0].Scheme.Name() != "8(3,3,2)" {
		t.Errorf("scheme name after roundtrip: %s", qm2.Layers[0].Scheme.Name())
	}
	x := []float64{0.5, 0.25, -0.5}
	if qm.Predict(x) != qm2.Predict(x) {
		t.Error("prediction differs after roundtrip")
	}
}

func TestUnmarshalRejectsBadShapes(t *testing.T) {
	bad := []string{
		`{"layers":[{"in":2,"out":1,"w":[1],"b":[0],"relu":false}]}`,
		`{"layers":[]}`,
		`not json`,
	}
	for _, s := range bad {
		if _, err := UnmarshalModel([]byte(s)); err == nil {
			t.Errorf("UnmarshalModel accepted %q", s)
		}
	}
	badQ := `{"frac":8,"layers":[{"in":1,"out":1,"w":[9],"b":[0],"scale":1,"relu":false,"scheme":"ternary"}]}`
	if _, err := UnmarshalQuantized([]byte(badQ)); err == nil {
		t.Error("UnmarshalQuantized accepted out-of-range ternary weight")
	}
}
