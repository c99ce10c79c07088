package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// buildTestModel trains a small model on synthetic data and quantizes it.
func buildTestModel(t *testing.T, scheme quant.Scheme) *nn.QuantizedModel {
	t.Helper()
	m := nn.NewModel(16, 8, 4)
	m.InitXavier(prg.New(prg.SeedFromInt(9)))
	return nn.Quantize(m, scheme, 6)
}

// runInference executes a full secure inference and compares with the
// plaintext quantized reference, bit-exactly.
func runInference(t *testing.T, qm *nn.QuantizedModel, p Params, variant ReLUVariant, batch int) transport.Stats {
	t.Helper()
	ca, cb, meter := transport.MeteredPipe()
	defer ca.Close()
	arch := ArchOf(qm)
	var (
		srv  *ServerEngine
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, serr = NewServerEngine(ca, qm, p, variant)
		if serr != nil {
			return
		}
		serr = srv.Offline(batch)
		if serr != nil {
			return
		}
		serr = srv.Online()
	}()
	cli, err := NewClientEngine(cb, arch, p, variant, prg.New(prg.SeedFromInt(33)))
	if err != nil {
		t.Fatalf("client engine: %v", err)
	}
	if err := cli.Offline(batch); err != nil {
		t.Fatalf("client offline: %v", err)
	}
	// Random fixed-point inputs.
	rng := prg.New(prg.SeedFromInt(44))
	X := ring.NewMat(arch.InputSize(), batch)
	for i := range X.Data {
		X.Data[i] = p.Ring.FromSigned(int64(rng.Intn(128) - 64))
	}
	got, err := cli.Predict(X)
	wg.Wait()
	if serr != nil {
		t.Fatalf("server: %v", serr)
	}
	if err != nil {
		t.Fatalf("client predict: %v", err)
	}
	// Reference: plaintext quantized forward per column.
	for k := 0; k < batch; k++ {
		x := make(ring.Vec, arch.InputSize())
		for i := range x {
			x[i] = X.At(i, k)
		}
		want := qm.ForwardRing(p.Ring, x)
		for i := range want {
			if got.At(i, k) != want[i] {
				t.Fatalf("batch col %d output %d: secure %d != plaintext %d (variant %v)",
					k, i, p.Ring.Signed(got.At(i, k)), p.Ring.Signed(want[i]), variant)
			}
		}
	}
	return meter.Snapshot()
}

func TestInferenceMatchesPlaintextBatch1(t *testing.T) {
	for _, scheme := range []quant.Scheme{quant.Uniform(2, 4), quant.Ternary(), quant.Binary()} {
		qm := buildTestModel(t, scheme)
		p := Params{Ring: ring.New(32), Scheme: scheme}
		runInference(t, qm, p, ReLUGC, 1)
	}
}

func TestInferenceMatchesPlaintextMultiBatch(t *testing.T) {
	scheme := quant.NewBitScheme(true, 3, 3, 2)
	qm := buildTestModel(t, scheme)
	p := Params{Ring: ring.New(32), Scheme: scheme}
	runInference(t, qm, p, ReLUGC, 4)
}

func TestInferenceOptimizedReLU(t *testing.T) {
	scheme := quant.Uniform(2, 2)
	qm := buildTestModel(t, scheme)
	p := Params{Ring: ring.New(32), Scheme: scheme}
	runInference(t, qm, p, ReLUOptimized, 1)
	runInference(t, qm, p, ReLUOptimized, 3)
}

func TestInference64BitRing(t *testing.T) {
	scheme := quant.Uniform(2, 4)
	qm := buildTestModel(t, scheme)
	p := Params{Ring: ring.New(64), Scheme: scheme}
	runInference(t, qm, p, ReLUGC, 2)
}

// With requantization, secure inference over Z_2^32 must track the exact
// plaintext reference within the probabilistic-truncation slack: each
// truncation contributes at most +-1, amplified by downstream weights.
func TestInferenceWithRequant32(t *testing.T) {
	scheme := quant.Uniform(2, 4)
	m := nn.NewModel(16, 8, 4)
	m.InitXavier(prg.New(prg.SeedFromInt(9)))
	qm := nn.QuantizeRequant(m, scheme, 6, 6)
	p := Params{Ring: ring.New(32), Scheme: scheme}
	ca, cb, _ := transport.MeteredPipe()
	defer ca.Close()
	arch := ArchOf(qm)
	batch := 3
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
	cli, err := NewClientEngine(cb, arch, p, ReLUGC, prg.New(prg.SeedFromInt(33)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Offline(batch); err != nil {
		t.Fatal(err)
	}
	rng := prg.New(prg.SeedFromInt(44))
	X := ring.NewMat(arch.InputSize(), batch)
	for i := range X.Data {
		X.Data[i] = p.Ring.FromSigned(int64(rng.Intn(128) - 64))
	}
	got, err := cli.Predict(X)
	wg.Wait()
	if serr != nil || err != nil {
		t.Fatalf("%v %v", serr, err)
	}
	// Tolerance: one unit per truncation at layer 1, amplified by layer 2
	// weight magnitudes, plus layer 2's own truncation.
	var wsum int64 = 1
	for _, w := range qm.Layers[1].W {
		if w < 0 {
			wsum -= w
		} else {
			wsum += w
		}
	}
	c2 := int64(qm.Layers[1].ReqC)
	t2 := qm.Layers[1].ReqT
	tol := (wsum*c2)>>t2 + 2
	for k := 0; k < batch; k++ {
		x := make(ring.Vec, arch.InputSize())
		for i := range x {
			x[i] = X.At(i, k)
		}
		want := qm.ForwardRing(p.Ring, x)
		for i := range want {
			d := p.Ring.Signed(got.At(i, k)) - p.Ring.Signed(want[i])
			if d < -tol || d > tol {
				t.Fatalf("col %d out %d: secure %d vs reference %d (tol %d)",
					k, i, p.Ring.Signed(got.At(i, k)), p.Ring.Signed(want[i]), tol)
			}
		}
	}
}

func TestEngineReuseAcrossBatches(t *testing.T) {
	scheme := quant.Uniform(2, 2)
	qm := buildTestModel(t, scheme)
	p := Params{Ring: ring.New(32), Scheme: scheme}
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
		srv, err := NewServerEngine(ca, qm, p, ReLUGC)
		if err != nil {
			serr = err
			return
		}
		for round := 0; round < 2; round++ {
			if serr = srv.Offline(1); serr != nil {
				return
			}
			if serr = srv.Online(); serr != nil {
				return
			}
		}
	}()
	cli, err := NewClientEngine(cb, arch, p, ReLUGC, prg.New(prg.SeedFromInt(3)))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := cli.Offline(1); err != nil {
			t.Fatalf("round %d offline: %v", round, err)
		}
		X := ring.NewMat(arch.InputSize(), 1)
		X.Data[0] = p.Ring.FromSigned(int64(round + 1))
		got, err := cli.Predict(X)
		if err != nil {
			t.Fatalf("round %d predict: %v", round, err)
		}
		x := make(ring.Vec, arch.InputSize())
		x[0] = X.Data[0]
		want := qm.ForwardRing(p.Ring, x)
		for i := range want {
			if got.At(i, 0) != want[i] {
				t.Fatalf("round %d output %d mismatch", round, i)
			}
		}
	}
	wg.Wait()
	if serr != nil {
		t.Fatal(serr)
	}
}

// Full Figure 4 network, ternary weights, batch 32 — the paper-scale
// integration check. Skipped under -short.
func TestFig4ScaleIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	scheme := quant.Ternary()
	m := nn.Fig4Network()
	m.InitXavier(prg.New(prg.SeedFromInt(77)))
	qm := nn.Quantize(m, scheme, 8)
	p := Params{Ring: ring.New(32), Scheme: scheme}
	stats := runInference(t, qm, p, ReLUGC, 32)
	if stats.TotalBytes() == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestArchValidate(t *testing.T) {
	good := Arch{
		Frac:       8,
		SchemeName: "binary",
		Layers: []nn.Shape{
			{In: 4, Out: 3, ReLU: true},
			{In: 3, Out: 2},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid arch rejected: %v", err)
	}
	bad := []Arch{
		{},
		{Layers: []nn.Shape{{In: 0, Out: 1}}},
		{Layers: []nn.Shape{{In: 2, Out: 2}, {In: 3, Out: 1}}},                                                // chain break
		{Layers: []nn.Shape{{In: 2, Out: 2, ReqT: 99}}},                                                       // bad requant
		{Layers: []nn.Shape{{In: 2, Out: 2, Pool: &nn.PoolSpec{K: 2}}}},                                       // pool sans conv
		{Frac: 99, Layers: []nn.Shape{{In: 2, Out: 2}}},                                                       // bad frac
		{Layers: []nn.Shape{{In: 4, Out: 1, Conv: &nn.ConvSpec{Ci: 1, H: 3, W: 3, Kh: 2, Kw: 2, Stride: 1}}}}, // In != conv input
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("bad arch %d validated", i)
		}
	}
}

// The hello reply's "arch" is encoding/json over Arch. An MLP's bytes are
// wire version 4's; a CNN's conv and pool keys are now the model file's
// lower-case ones, and the version-4 upper-case form still decodes to the
// same Arch because encoding/json matches keys case-insensitively.
func TestArchJSONWireForm(t *testing.T) {
	mlp := Arch{Frac: 8, SchemeName: "binary", Layers: []nn.Shape{{In: 4, Out: 3, ReLU: true}, {In: 3, Out: 2}}}
	got, err := json.Marshal(mlp)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"Layers":[{"In":4,"Out":3,"ReLU":true,"ReqC":0,"ReqT":0},{"In":3,"Out":2,"ReLU":false,"ReqC":0,"ReqT":0}],"Frac":8,"SchemeName":"binary"}`; string(got) != want {
		t.Errorf("MLP arch encodes as\n%s\nwant\n%s", got, want)
	}
	cnn := Arch{Frac: 8, SchemeName: "binary", Layers: []nn.Shape{
		{In: 16, Out: 2, ReLU: true, Conv: &nn.ConvSpec{Ci: 1, H: 4, W: 4, Kh: 2, Kw: 2, Stride: 2}, Pool: &nn.PoolSpec{K: 2}},
		{In: 2, Out: 2},
	}}
	got, err = json.Marshal(cnn)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"Conv":{"ci":1,"h":4,"w":4,"kh":2,"kw":2,"stride":2,"pad":0},"Pool":{"k":2}`; !strings.Contains(string(got), want) {
		t.Errorf("CNN arch encodes as %s, want it to contain %s", got, want)
	}
	v4 := `{"Layers":[{"In":16,"Out":2,"ReLU":true,"ReqC":0,"ReqT":0,"Conv":{"Ci":1,"H":4,"W":4,"Kh":2,"Kw":2,"Stride":2,"Pad":0},"Pool":{"K":2}},` +
		`{"In":2,"Out":2,"ReLU":false,"ReqC":0,"ReqT":0}],"Frac":8,"SchemeName":"binary"}`
	var dec Arch
	if err := json.Unmarshal([]byte(v4), &dec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, cnn) {
		t.Errorf("version-4 CNN arch decodes to %+v, want %+v", dec, cnn)
	}
	if err := dec.Validate(); err != nil {
		t.Errorf("decoded CNN arch: %v", err)
	}
}

func TestOnlineWithoutOfflineFails(t *testing.T) {
	scheme := quant.Binary()
	qm := buildTestModel(t, scheme)
	p := Params{Ring: ring.New(32), Scheme: scheme}
	ca, cb, _ := transport.MeteredPipe()
	defer ca.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var srv *ServerEngine
	var serr error
	go func() {
		defer wg.Done()
		srv, serr = NewServerEngine(ca, qm, p, ReLUGC)
	}()
	cli, err := NewClientEngine(cb, ArchOf(qm), p, ReLUGC, prg.New(prg.SeedFromInt(5)))
	wg.Wait()
	if serr != nil || err != nil {
		t.Fatalf("setup: %v %v", serr, err)
	}
	if err := srv.Online(); err == nil {
		t.Error("server Online without Offline succeeded")
	}
	if _, err := cli.Predict(ring.NewMat(16, 1)); err == nil {
		t.Error("client Predict without Offline succeeded")
	}
}

func TestServerEngineRejectsOutOfRangeModel(t *testing.T) {
	qm := buildTestModel(t, quant.Uniform(2, 4)) // 8-bit weights
	p := Params{Ring: ring.New(32), Scheme: quant.Binary()}
	ca, cb, _ := transport.MeteredPipe()
	defer ca.Close()
	go func() {
		// Client side would block in setup; just drain.
		NewClientEngine(cb, ArchOf(qm), p, ReLUGC, prg.New(prg.SeedFromInt(6)))
	}()
	if _, err := NewServerEngine(ca, qm, p, ReLUGC); err == nil {
		t.Error("8-bit model accepted under binary scheme")
	}
}
