package core

import (
	"sync"
	"testing"

	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// buildTestCNN constructs a quantized CNN directly (integer weights,
// scale 1) so the plaintext reference is exact:
// conv(1->2, 3x3, pad 1) + ReLU + pool2 -> conv(2->3, 3x3, s1) + ReLU ->
// FC(3*2*2 -> 4... dims worked out below).
func buildTestCNN(t *testing.T, scheme quant.Scheme, withPool bool) *nn.QuantizedModel {
	t.Helper()
	rng := prg.New(prg.SeedFromInt(77))
	min, max := scheme.Range()
	span := int(max - min + 1)
	randW := func(n int) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = min + int64(rng.Intn(span))
		}
		return w
	}
	conv1 := &nn.ConvSpec{Ci: 1, H: 8, W: 8, Kh: 3, Kw: 3, Stride: 1, Pad: 1} // out 2x8x8
	l1 := &nn.QuantizedLayer{
		Shape: nn.Shape{In: conv1.InputSize(), Out: 2, ReLU: true, Conv: conv1},
		W:     randW(2 * conv1.ColRows()), B: randW(2),
		Scale: 1, Scheme: scheme,
	}
	in2H := 8
	if withPool {
		l1.Pool = &nn.PoolSpec{K: 2} // out 2x4x4
		in2H = 4
	}
	conv2 := &nn.ConvSpec{Ci: 2, H: in2H, W: in2H, Kh: 3, Kw: 3, Stride: 1, Pad: 0} // out 3x(in2H-2)^2
	l2 := &nn.QuantizedLayer{
		Shape: nn.Shape{In: conv2.InputSize(), Out: 3, ReLU: true, Conv: conv2},
		W:     randW(3 * conv2.ColRows()), B: randW(3),
		Scale: 1, Scheme: scheme,
	}
	fcIn := 3 * (in2H - 2) * (in2H - 2)
	l3 := &nn.QuantizedLayer{
		Shape: nn.Shape{In: fcIn, Out: 4},
		W:     randW(4 * fcIn), B: randW(4),
		Scale: 1, Scheme: scheme,
	}
	return &nn.QuantizedModel{Frac: 0, Layers: []*nn.QuantizedLayer{l1, l2, l3}}
}

// runCNNInference executes secure inference for the CNN and compares
// against the plaintext ring reference, bit-exactly.
func runCNNInference(t *testing.T, qm *nn.QuantizedModel, p Params, variant ReLUVariant, batch int) {
	t.Helper()
	ca, cb, _ := transport.MeteredPipe()
	defer ca.Close()
	arch := ArchOf(qm)
	var (
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, err := NewServerEngine(ca, qm, p, variant)
		if err == nil {
			err = srv.Offline(batch)
		}
		if err == nil {
			err = srv.Online()
		}
		serr = err
	}()
	cli, err := NewClientEngine(cb, arch, p, variant, prg.New(prg.SeedFromInt(33)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Offline(batch); err != nil {
		t.Fatal(err)
	}
	rng := prg.New(prg.SeedFromInt(44))
	X := ring.NewMat(arch.InputSize(), batch)
	for i := range X.Data {
		X.Data[i] = p.Ring.FromSigned(int64(rng.Intn(9) - 4))
	}
	got, err := cli.Predict(X)
	wg.Wait()
	if serr != nil || err != nil {
		t.Fatalf("server=%v client=%v", serr, err)
	}
	for k := 0; k < batch; k++ {
		x := make(ring.Vec, arch.InputSize())
		for i := range x {
			x[i] = X.At(i, k)
		}
		want := qm.ForwardRing(p.Ring, x)
		if len(want) != got.Rows {
			t.Fatalf("output rows %d vs reference %d", got.Rows, len(want))
		}
		for i := range want {
			if got.At(i, k) != want[i] {
				t.Fatalf("col %d out %d: secure %d != plaintext %d",
					k, i, p.Ring.Signed(got.At(i, k)), p.Ring.Signed(want[i]))
			}
		}
	}
}

func TestSecureCNNWithPool(t *testing.T) {
	scheme := quant.Uniform(2, 2)
	qm := buildTestCNN(t, scheme, true)
	p := Params{Ring: ring.New(32), Scheme: scheme}
	runCNNInference(t, qm, p, ReLUGC, 1)
	runCNNInference(t, qm, p, ReLUGC, 3)
}

func TestSecureCNNWithoutPool(t *testing.T) {
	scheme := quant.Ternary()
	qm := buildTestCNN(t, scheme, false)
	p := Params{Ring: ring.New(32), Scheme: scheme}
	runCNNInference(t, qm, p, ReLUGC, 2)
}

func TestSecureCNNOptimizedReLU(t *testing.T) {
	// Optimized ReLU applies to non-pool activation layers; pooled layers
	// always use the max circuit.
	scheme := quant.Uniform(2, 2)
	qm := buildTestCNN(t, scheme, true)
	p := Params{Ring: ring.New(32), Scheme: scheme}
	runCNNInference(t, qm, p, ReLUOptimized, 1)
}

// End-to-end with the private argmax finish: the classes must equal the
// plaintext argmax, and the server must learn nothing (checked by
// protocol design; here we check correctness).
func TestSecureInferenceArgmaxFinish(t *testing.T) {
	scheme := quant.Uniform(2, 4)
	m := nn.NewModel(16, 8, 4)
	m.InitXavier(prg.New(prg.SeedFromInt(9)))
	qm := nn.Quantize(m, scheme, 6)
	p := Params{Ring: ring.New(32), Scheme: scheme}
	ca, cb, _ := transport.MeteredPipe()
	defer ca.Close()
	arch := ArchOf(qm)
	batch := 4
	var (
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, err := NewServerEngine(ca, qm, p, ReLUGC)
		if err == nil {
			err = srv.Offline(batch)
		}
		if err == nil {
			err = srv.OnlineArgmax()
		}
		serr = err
	}()
	cli, err := NewClientEngine(cb, arch, p, ReLUGC, prg.New(prg.SeedFromInt(31)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Offline(batch); err != nil {
		t.Fatal(err)
	}
	rng := prg.New(prg.SeedFromInt(41))
	X := ring.NewMat(arch.InputSize(), batch)
	for i := range X.Data {
		X.Data[i] = p.Ring.FromSigned(int64(rng.Intn(64) - 32))
	}
	classes, err := cli.PredictArgmax(X)
	wg.Wait()
	if serr != nil || err != nil {
		t.Fatalf("server=%v client=%v", serr, err)
	}
	for k := 0; k < batch; k++ {
		x := make(ring.Vec, arch.InputSize())
		for i := range x {
			x[i] = X.At(i, k)
		}
		out := qm.ForwardRing(p.Ring, x)
		best := 0
		for i := 1; i < len(out); i++ {
			if p.Ring.Signed(out[i]) > p.Ring.Signed(out[best]) {
				best = i
			}
		}
		if classes[k] != best {
			t.Errorf("sample %d: secure argmax %d, plaintext %d", k, classes[k], best)
		}
	}
}

// CNN + requantization on the 32-bit ring: conv outputs rescale with the
// same local-truncation machinery as FC layers. Secure vs reference with
// truncation tolerance, plus pooled layers (max is order-preserving, so
// +-1 slack survives pooling as +-1).
func TestSecureCNNRequant32(t *testing.T) {
	scheme := quant.Uniform(2, 2)
	qm := buildTestCNN(t, scheme, true)
	for _, l := range qm.Layers {
		l.ReqC, l.ReqT = 7, 3 // rescale by 7/8 each layer, keeps magnitudes sane
	}
	p := Params{Ring: ring.New(32), Scheme: scheme}
	ca, cb, _ := transport.MeteredPipe()
	defer ca.Close()
	arch := ArchOf(qm)
	batch := 2
	var (
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, err := NewServerEngine(ca, qm, p, ReLUGC)
		if err == nil {
			err = srv.Offline(batch)
		}
		if err == nil {
			err = srv.Online()
		}
		serr = err
	}()
	cli, err := NewClientEngine(cb, arch, p, ReLUGC, prg.New(prg.SeedFromInt(35)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Offline(batch); err != nil {
		t.Fatal(err)
	}
	rng := prg.New(prg.SeedFromInt(45))
	X := ring.NewMat(arch.InputSize(), batch)
	for i := range X.Data {
		X.Data[i] = p.Ring.FromSigned(int64(rng.Intn(9) - 4))
	}
	got, err := cli.Predict(X)
	wg.Wait()
	if serr != nil || err != nil {
		t.Fatalf("server=%v client=%v", serr, err)
	}
	// Tolerance: per-layer +-1 amplified by the next layers' weight sums;
	// with 4-bit weights and 3 layers a generous bound is plenty.
	const tol = 2000
	for k := 0; k < batch; k++ {
		x := make(ring.Vec, arch.InputSize())
		for i := range x {
			x[i] = X.At(i, k)
		}
		want := qm.ForwardRing(p.Ring, x)
		for i := range want {
			d := p.Ring.Signed(got.At(i, k)) - p.Ring.Signed(want[i])
			if d < -tol || d > tol {
				t.Fatalf("col %d out %d: secure %d vs reference %d",
					k, i, p.Ring.Signed(got.At(i, k)), p.Ring.Signed(want[i]))
			}
		}
	}
}

// A linear junction (layer without ReLU or pool feeding another layer)
// must chain client shares correctly.
func TestLinearJunction(t *testing.T) {
	scheme := quant.Uniform(2, 2)
	rng := prg.New(prg.SeedFromInt(5))
	min, max := scheme.Range()
	span := int(max - min + 1)
	randW := func(n int) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = min + int64(rng.Intn(span))
		}
		return w
	}
	qm := &nn.QuantizedModel{Frac: 0, Layers: []*nn.QuantizedLayer{
		{Shape: nn.Shape{In: 6, Out: 5}, W: randW(30), B: randW(5), Scale: 1, Scheme: scheme}, // no relu
		{Shape: nn.Shape{In: 5, Out: 3}, W: randW(15), B: randW(3), Scale: 1, Scheme: scheme},
	}}
	p := Params{Ring: ring.New(32), Scheme: scheme}
	runCNNInference(t, qm, p, ReLUGC, 2)
}
