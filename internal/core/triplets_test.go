package core

import (
	"sync"
	"testing"

	"abnn2/internal/baseline"
	"abnn2/internal/otext"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// tripletPair creates a connected client/server triplet generator pair.
func tripletPair(t *testing.T, p Params) (*ClientTriplets, *ServerTriplets, *transport.Meter, func()) {
	t.Helper()
	ca, cb, meter := transport.MeteredPipe()
	var (
		ct  *ClientTriplets
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ct, err = NewClientTriplets(ca, p, 1, prg.New(prg.SeedFromInt(10)))
	}()
	st, serr := NewServerTripletsSeeded(cb, p, 1, prg.New(prg.NewSeed()))
	wg.Wait()
	if err != nil || serr != nil {
		t.Fatalf("setup: %v %v", err, serr)
	}
	return ct, st, meter, func() { ca.Close() }
}

// randomWeights draws representable weights for the scheme.
func randomWeights(scheme quant.Scheme, n int, seed uint64) []int64 {
	g := prg.New(prg.SeedFromInt(seed))
	min, max := scheme.Range()
	out := make([]int64, n)
	span := int(max - min + 1)
	for i := range out {
		out[i] = min + int64(g.Intn(span))
	}
	return out
}

// plainProduct is the reference W * R over the ring, with two's-complement
// weights.
func plainProduct(p Params, sh MatShape, W []int64, R *ring.Mat) *ring.Mat {
	Wm := ring.NewMat(sh.M, sh.N)
	for i, w := range W {
		Wm.Data[i] = p.Ring.FromSigned(w)
	}
	return p.Ring.MulMat(Wm, R)
}

// runTriplets executes the offline phase and checks U + V = W * R.
func runTriplets(t *testing.T, p Params, sh MatShape, mode Mode, seed uint64) transport.Stats {
	t.Helper()
	ct, st, meter, done := tripletPair(t, p)
	defer done()
	W := randomWeights(p.Scheme, sh.M*sh.N, seed)
	R := prg.New(prg.SeedFromInt(seed+1)).Mat(p.Ring, sh.N, sh.O)
	meter.Reset()
	var (
		V    *ring.Mat
		cerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		V, cerr = ct.GenerateClient(sh, R, mode)
	}()
	U, serr := st.GenerateServer(sh, W, mode)
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("mode %v: client=%v server=%v", mode, cerr, serr)
	}
	want := plainProduct(p, sh, W, R)
	got := p.Ring.AddMat(U, V)
	if !p.Ring.EqualMat(got, want) {
		for i := 0; i < sh.M; i++ {
			for k := 0; k < sh.O; k++ {
				if got.At(i, k) != want.At(i, k) {
					t.Fatalf("mode %v scheme %s: (U+V)[%d][%d] = %d, want %d",
						mode, p.Scheme.Name(), i, k, got.At(i, k), want.At(i, k))
				}
			}
		}
	}
	return meter.Snapshot()
}

func TestOneBatchAllSchemes(t *testing.T) {
	schemes := []quant.Scheme{
		quant.Binary(),
		quant.Ternary(),
		quant.OneBit(8, true),
		quant.Uniform(2, 4),
		quant.NewBitScheme(true, 3, 3, 2),
		quant.NewBitScheme(true, 4, 4),
		quant.NewBitScheme(true, 2, 1),
	}
	for _, s := range schemes {
		p := Params{Ring: ring.New(32), Scheme: s}
		runTriplets(t, p, MatShape{M: 5, N: 7, O: 1}, OneBatch, 100)
	}
}

func TestNaiveNMatchesOneBatch(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 2)}
	runTriplets(t, p, MatShape{M: 3, N: 4, O: 1}, MultiBatch, 200)
}

func TestMultiBatchAllSchemes(t *testing.T) {
	schemes := []quant.Scheme{
		quant.Binary(),
		quant.Ternary(),
		quant.Uniform(2, 4),
		quant.NewBitScheme(true, 3, 3, 2),
	}
	for _, s := range schemes {
		p := Params{Ring: ring.New(32), Scheme: s}
		runTriplets(t, p, MatShape{M: 4, N: 6, O: 5}, MultiBatch, 300)
	}
}

func TestRingWidths(t *testing.T) {
	for _, bits := range []uint{16, 32, 64} {
		p := Params{Ring: ring.New(bits), Scheme: quant.Uniform(2, 2)}
		runTriplets(t, p, MatShape{M: 3, N: 3, O: 2}, MultiBatch, uint64(bits))
		runTriplets(t, p, MatShape{M: 3, N: 3, O: 1}, OneBatch, uint64(bits))
	}
}

func TestChunkingBoundary(t *testing.T) {
	// Shape chosen so gamma*m*n straddles a chunk boundary.
	p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 2)}
	sh := MatShape{M: 1, N: chunkOTs/2 + 7, O: 1} // 2*(2048+7) OTs > chunk
	runTriplets(t, p, sh, OneBatch, 400)
}

// Communication must match Table 1's formulas exactly, at the column
// width this implementation sends — that of the KK13 code for the
// scheme's largest N, written out by hand here — and the formulas in
// complexity.go must say the same:
// one-batch:  gamma*m*n * (l*(N-1) + width) bits
// multi-batch: gamma*m*n * (o*l*N + width) bits
// (payload client->server; column matrices server->client).
func TestCommunicationMatchesTable1(t *testing.T) {
	const l = 32
	for _, c := range []struct {
		scheme quant.Scheme
		width  int64 // column bits per OT
	}{
		{quant.Binary(), 128},                    // N = 2
		{quant.Ternary(), 192},                   // N = 3
		{quant.Uniform(2, 4), 192},               // N = 4
		{quant.NewBitScheme(true, 3, 3, 2), 224}, // N = 8, 8, 4: one width per layer
		{quant.NewBitScheme(true, 4, 4), 240},    // N = 16
	} {
		for _, sh := range []MatShape{{8, 16, 1}, {8, 16, 4}} {
			mode := ModeFor(sh.O)
			p := Params{Ring: ring.New(l), Scheme: c.scheme}
			stats := runTriplets(t, p, sh, mode, 500)
			var payloadBits, colBits int64
			for f := 0; f < c.scheme.Gamma(); f++ {
				n := int64(c.scheme.FragmentN(f))
				per := int64(sh.M * sh.N)
				if mode == OneBatch {
					payloadBits += per * l * (n - 1)
				} else {
					payloadBits += per * int64(sh.O) * l * n
				}
				colBits += per * c.width
			}
			if got := stats.BytesAB * 8; got != payloadBits {
				t.Errorf("%s %v: client payload %d bits, want %d", c.scheme.Name(), mode, got, payloadBits)
			}
			if got := stats.BytesBA * 8; got != colBits {
				t.Errorf("%s %v: server columns %d bits, want %d", c.scheme.Name(), mode, got, colBits)
			}
			cx := OfflineComplexity(l, c.scheme, sh)
			if got := float64(stats.TotalBytes() * 8); got != cx.CommBits {
				t.Errorf("%s %v: measured %v bits, formula %v", c.scheme.Name(), mode, got, cx.CommBits)
			}
			if want := float64(payloadBits + int64(p.NumOTs(sh))*2*otext.Kappa); cx.PaperBits != want {
				t.Errorf("%s %v: paper-faithful formula %v bits, want %v", c.scheme.Name(), mode, cx.PaperBits, want)
			}
		}
	}

	// QUOTIENT: two correlated 1-out-of-2 OTs per weight, l correction
	// bits and the 128-bit repetition code's columns each.
	sh := MatShape{8, 16, 1}
	rg := ring.New(l)
	ca, cb, meter := transport.MeteredPipe()
	defer ca.Close()
	var (
		qc   *baseline.QuotientClient
		cerr error
		wg   sync.WaitGroup
	)
	setup := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	setup(func() { qc, cerr = baseline.NewQuotientClient(ca, rg, 1, 0, prg.New(prg.SeedFromInt(1))) })
	qs, serr := baseline.NewQuotientServer(cb, rg, 1, 0, prg.New(prg.SeedFromInt(2)))
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("quotient setup: client=%v server=%v", cerr, serr)
	}
	meter.Reset()
	setup(func() { _, cerr = qc.GenerateClient(sh.M, prg.New(prg.SeedFromInt(3)).Mat(rg, sh.N, 1)) })
	_, serr = qs.GenerateServer(randomWeights(quant.Ternary(), sh.M*sh.N, 4), sh.M, sh.N, 1)
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("quotient: client=%v server=%v", cerr, serr)
	}
	stats := meter.Snapshot()
	if got, want := stats.BytesBA*8, int64(2*sh.M*sh.N*128); got != want {
		t.Errorf("quotient: server columns %d bits, want %d", got, want)
	}
	if got, want := float64(stats.TotalBytes()*8), QuotientComplexity(l, sh).CommBits; got != want {
		t.Errorf("quotient: measured %v bits, formula %v", got, want)
	}
}

// One-batch must use strictly less client->server traffic than naive-N
// for the same shape (the section 4.1.3 claim).
func TestOneBatchBeatsNaive(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 4)}
	sh := MatShape{M: 4, N: 8, O: 1}
	sOne := runTriplets(t, p, sh, OneBatch, 600)
	sNaive := runTriplets(t, p, sh, MultiBatch, 601)
	if sOne.BytesAB >= sNaive.BytesAB {
		t.Errorf("one-batch payload %d >= naive %d", sOne.BytesAB, sNaive.BytesAB)
	}
}

func TestShapeValidation(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Binary()}
	ct, st, _, done := tripletPair(t, p)
	defer done()
	if _, err := ct.GenerateClient(MatShape{M: 2, N: 2, O: 3}, ring.NewMat(2, 3), OneBatch); err == nil {
		t.Error("one-batch with o=3 accepted by client")
	}
	if _, err := st.GenerateServer(MatShape{M: 2, N: 2, O: 1}, []int64{0, 1, 0}, OneBatch); err == nil {
		t.Error("wrong weight count accepted by server")
	}
	if _, err := st.GenerateServer(MatShape{M: 1, N: 2, O: 1}, []int64{0, 5}, OneBatch); err == nil {
		t.Error("out-of-range weight accepted by server")
	}
	if _, err := ct.GenerateClient(MatShape{M: 2, N: 2, O: 1}, ring.NewMat(3, 1), OneBatch); err == nil {
		t.Error("wrong R shape accepted by client")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err == nil {
		t.Error("zero params validated")
	}
	if err := (Params{Ring: ring.New(32)}).Validate(); err == nil {
		t.Error("missing scheme validated")
	}
	if err := (Params{Ring: ring.New(32), Scheme: quant.Binary()}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}
