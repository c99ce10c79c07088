package core

import (
	"sync"
	"testing"

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
	st, serr := NewServerTriplets(cb, p, 1)
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
	runTriplets(t, p, MatShape{M: 3, N: 4, O: 1}, NaiveN, 200)
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

// Communication must match Table 1's formulas exactly:
// one-batch:  gamma*m*n * (l*(N-1) + 2*kappa) bits
// multi-batch: gamma*m*n * (o*l*N + 2*kappa) bits
// (payload client->server; column matrices server->client).
func TestCommunicationMatchesTable1(t *testing.T) {
	l := 32
	cases := []struct {
		scheme quant.Scheme
		sh     MatShape
		mode   Mode
	}{
		{quant.Uniform(2, 4), MatShape{8, 16, 1}, OneBatch},
		{quant.Ternary(), MatShape{8, 16, 1}, OneBatch},
		{quant.Uniform(2, 4), MatShape{8, 16, 4}, MultiBatch},
		{quant.NewBitScheme(true, 3, 3, 2), MatShape{8, 16, 1}, OneBatch},
	}
	for _, c := range cases {
		p := Params{Ring: ring.New(uint(l)), Scheme: c.scheme}
		stats := runTriplets(t, p, c.sh, c.mode, 500)
		var payloadBits, colBits int64
		for f := 0; f < c.scheme.Gamma(); f++ {
			n := int64(c.scheme.FragmentN(f))
			per := int64(c.sh.M * c.sh.N)
			if c.mode == OneBatch {
				payloadBits += per * int64(l) * (n - 1)
			} else {
				payloadBits += per * int64(c.sh.O) * int64(l) * n
			}
			colBits += per * 2 * otext.Kappa
		}
		if got := stats.BytesAB * 8; got != payloadBits {
			t.Errorf("%s %v: client payload %d bits, want %d", c.scheme.Name(), c.mode, got, payloadBits)
		}
		if got := stats.BytesBA * 8; got != colBits {
			t.Errorf("%s %v: server columns %d bits, want %d", c.scheme.Name(), c.mode, got, colBits)
		}
	}
}

// One-batch must use strictly less client->server traffic than naive-N
// for the same shape (the section 4.1.3 claim).
func TestOneBatchBeatsNaive(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 4)}
	sh := MatShape{M: 4, N: 8, O: 1}
	sOne := runTriplets(t, p, sh, OneBatch, 600)
	sNaive := runTriplets(t, p, sh, NaiveN, 601)
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
