package nn

import (
	"math"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
)

func TestConvGeometry(t *testing.T) {
	c := ConvSpec{Ci: 1, H: 28, W: 28, Kh: 5, Kw: 5, Stride: 1, Pad: 0}
	if c.OutH() != 24 || c.OutW() != 24 || c.Positions() != 576 || c.ColRows() != 25 {
		t.Fatalf("geometry: %d %d %d %d", c.OutH(), c.OutW(), c.Positions(), c.ColRows())
	}
	padded := ConvSpec{Ci: 3, H: 8, W: 8, Kh: 3, Kw: 3, Stride: 2, Pad: 1}
	if padded.OutH() != 4 || padded.ColRows() != 27 {
		t.Fatalf("padded geometry: %d %d", padded.OutH(), padded.ColRows())
	}
}

func TestConvValidate(t *testing.T) {
	bad := []ConvSpec{
		{Ci: 0, H: 4, W: 4, Kh: 2, Kw: 2, Stride: 1},
		{Ci: 1, H: 4, W: 4, Kh: 2, Kw: 2, Stride: 0},
		{Ci: 1, H: 4, W: 4, Kh: 9, Kw: 2, Stride: 1},
		{Ci: 1, H: 4, W: 4, Kh: 2, Kw: 2, Stride: 1, Pad: -1},
		{Ci: 1, H: 5, W: 5, Kh: 2, Kw: 2, Stride: 1, Pad: 1_000_000},    // output grid
		{Ci: 1, H: 1, W: 1, Kh: 1, Kw: 1, Stride: 1, Pad: math.MaxInt},  // field
		{Ci: 1 << 12, H: 1 << 12, W: 1 << 12, Kh: 1, Kw: 1, Stride: 1},  // input
		{Ci: 1, H: 64, W: 64, Kh: 8192, Kw: 8192, Stride: 1, Pad: 4096}, // im2col rows
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

// Direct convolution vs im2col matmul on a hand-checkable case.
func TestIm2ColMatchesDirectConv(t *testing.T) {
	c := ConvSpec{Ci: 2, H: 5, W: 5, Kh: 3, Kw: 3, Stride: 1, Pad: 1}
	rng := prg.New(prg.SeedFromInt(1))
	x := make([]float64, c.InputSize())
	for i := range x {
		x[i] = float64(rng.Intn(10)) - 5
	}
	k := make([]float64, c.ColRows()) // one output channel
	for i := range k {
		k[i] = float64(rng.Intn(7)) - 3
	}
	col := c.Im2ColFloat(x)
	p := c.Positions()
	got := make([]float64, p)
	for j := 0; j < p; j++ {
		for r := 0; r < c.ColRows(); r++ {
			got[j] += k[r] * col[r*p+j]
		}
	}
	// Direct: for each output position, sum over kernel with padding.
	ow := c.OutW()
	for py := 0; py < c.OutH(); py++ {
		for px := 0; px < ow; px++ {
			var want float64
			for ci := 0; ci < c.Ci; ci++ {
				for ky := 0; ky < c.Kh; ky++ {
					for kx := 0; kx < c.Kw; kx++ {
						y := py*c.Stride + ky - c.Pad
						xx := px*c.Stride + kx - c.Pad
						if y < 0 || y >= c.H || xx < 0 || xx >= c.W {
							continue
						}
						want += k[ci*9+ky*3+kx] * x[ci*25+y*5+xx]
					}
				}
			}
			if math.Abs(got[py*ow+px]-want) > 1e-9 {
				t.Fatalf("position (%d,%d): %v vs %v", py, px, got[py*ow+px], want)
			}
		}
	}
}

// col2im must be the exact adjoint of im2col: <im2col(x), g> = <x, col2im(g)>.
func TestCol2ImAdjoint(t *testing.T) {
	c := ConvSpec{Ci: 2, H: 6, W: 6, Kh: 3, Kw: 3, Stride: 1, Pad: 1}
	rng := prg.New(prg.SeedFromInt(2))
	x := make([]float64, c.InputSize())
	g := make([]float64, c.ColRows()*c.Positions())
	for i := range x {
		x[i] = float64(rng.Intn(100)) / 10
	}
	for i := range g {
		g[i] = float64(rng.Intn(100)) / 10
	}
	col := c.Im2ColFloat(x)
	var lhs float64
	for i := range col {
		lhs += col[i] * g[i]
	}
	back := c.Col2ImFloat(g)
	var rhs float64
	for i := range x {
		rhs += x[i] * back[i]
	}
	if math.Abs(lhs-rhs) > 1e-6 {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestIm2ColRingMatchesFloat(t *testing.T) {
	c := ConvSpec{Ci: 1, H: 4, W: 4, Kh: 2, Kw: 2, Stride: 2, Pad: 0}
	r := ring.New(32)
	xf := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	xr := make(ring.Vec, 16)
	for i, v := range xf {
		xr[i] = r.FromSigned(int64(v))
	}
	colF := c.Im2ColFloat(xf)
	colR := c.Im2ColRing(xr)
	for i := range colF {
		if int64(colF[i]) != r.Signed(colR[i]) {
			t.Fatalf("col[%d]: float %v ring %d", i, colF[i], r.Signed(colR[i]))
		}
	}
}

func TestPoolWindows(t *testing.T) {
	p := PoolSpec{K: 2}
	wins := p.Windows(2, 4, 4)
	if len(wins) != 2*2*2 {
		t.Fatalf("window count %d", len(wins))
	}
	// First window of channel 0: indices {0,1,4,5}.
	want := []int{0, 1, 4, 5}
	for i, w := range wins[0] {
		if w != want[i] {
			t.Fatalf("window 0 = %v", wins[0])
		}
	}
	// Non-overlap: every index appears exactly once.
	seen := map[int]bool{}
	for _, win := range wins {
		for _, idx := range win {
			if seen[idx] {
				t.Fatalf("index %d in two windows", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 2*4*4 {
		t.Fatalf("windows cover %d of %d inputs", len(seen), 32)
	}
}

func TestCNNForwardShapes(t *testing.T) {
	m := SmallCNN(4)
	out := m.Forward(make([]float64, 784))
	if len(out) != NumClasses {
		t.Fatalf("output size %d", len(out))
	}
	if m.Layers[0].OutputSize() != 4*12*12 {
		t.Fatalf("conv output size %d", m.Layers[0].OutputSize())
	}
}

func TestCNNTrainingLearns(t *testing.T) {
	ds := SyntheticMNIST(300, 0.2, 17)
	train, test := ds.Split(0.8)
	m := SmallCNN(4)
	m.InitXavier(prg.New(prg.SeedFromInt(3)))
	cfg := TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.05, Seed: 2}
	m.Train(train.X, train.Labels, cfg)
	acc := m.Accuracy(test.X, test.Labels)
	if acc < 0.6 {
		t.Errorf("CNN accuracy %.3f after training, want >= 0.6", acc)
	}
}

func TestQuantizedCNNForwardRing(t *testing.T) {
	// A tiny CNN evaluated via ForwardRing against the float model on
	// integer-valued inputs/weights (so both are exact).
	conv := ConvSpec{Ci: 1, H: 4, W: 4, Kh: 2, Kw: 2, Stride: 2, Pad: 0}
	m := NewCustomModel(
		NewConvLayer(conv, 2, true, &PoolSpec{K: 2}),
		NewFCLayer(2*1*1, 2, false),
	)
	rng := prg.New(prg.SeedFromInt(4))
	for _, l := range m.Layers {
		for i := range l.W {
			l.W[i] = float64(rng.Intn(5) - 2)
		}
		for i := range l.B {
			l.B[i] = float64(rng.Intn(3) - 1)
		}
	}
	// Build the integer twin directly (Scale 1, frac 0) so float and ring
	// evaluations are both exact integer arithmetic.
	qm := &QuantizedModel{Frac: 0}
	for _, l := range m.Layers {
		ql := &QuantizedLayer{
			Shape: l.Shape,
			W:     make([]int64, len(l.W)), B: make([]int64, len(l.B)),
			Scale: 1, Scheme: quant.NewBitScheme(true, 2, 2),
		}
		for i, w := range l.W {
			ql.W[i] = int64(w)
		}
		for i, b := range l.B {
			ql.B[i] = int64(b)
		}
		qm.Layers = append(qm.Layers, ql)
	}
	r := ring.New(32)
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(rng.Intn(9) - 4)
	}
	xe := qm.EncodeInput(r, x)
	got := qm.ForwardRing(r, xe)
	want := m.Forward(x)
	for i := range want {
		if r.Signed(got[i]) != int64(want[i]) {
			t.Fatalf("output %d: ring %d float %v", i, r.Signed(got[i]), want[i])
		}
	}
}

func TestCNNSerializationRoundTrip(t *testing.T) {
	m := SmallCNN(2)
	m.InitXavier(prg.New(prg.SeedFromInt(5)))
	data, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 784)
	x[100] = 0.5
	a, b := m.Forward(x), m2.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("float CNN roundtrip diverged")
		}
	}
	qm := Quantize(m, quant.Uniform(2, 4), 8)
	qdata, err := MarshalQuantized(qm)
	if err != nil {
		t.Fatal(err)
	}
	qm2, err := UnmarshalQuantized(qdata)
	if err != nil {
		t.Fatal(err)
	}
	if qm2.Layers[0].Conv == nil || qm2.Layers[0].Pool == nil {
		t.Fatal("conv/pool specs lost in quantized roundtrip")
	}
	if qm.Predict(x) != qm2.Predict(x) {
		t.Fatal("quantized CNN roundtrip diverged")
	}
}
