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
		t.Fatalf("o=%d: client=%v server=%v", sh.O, cerr, serr)
	}
	want := plainProduct(p, sh, W, R)
	got := p.Ring.AddMat(U, V)
	if !p.Ring.EqualMat(got, want) {
		for i := 0; i < sh.M; i++ {
			for k := 0; k < sh.O; k++ {
				if got.At(i, k) != want.At(i, k) {
					t.Fatalf("o=%d scheme %s: (U+V)[%d][%d] = %d, want %d",
						sh.O, p.Scheme.Name(), i, k, got.At(i, k), want.At(i, k))
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

// At o = 1, MultiBatch is the one-batch path: no encoder sends Fig. 3's
// N ciphertexts any more, so both entries move the same bytes each way.
func TestNaiveNMatchesOneBatch(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 2)}
	sh := MatShape{M: 3, N: 4, O: 1}
	if multi, one := runTriplets(t, p, sh, MultiBatch, 200), runTriplets(t, p, sh, OneBatch, 200); multi != one {
		t.Errorf("MultiBatch at o = 1 moved %+v, OneBatch %+v", multi, one)
	}
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
// gamma*m*n * (o*l*(N-1) + width) bits at every o, Table 1's 1-Batch
// column with l replaced by o*l (payload client->server; column matrices
// server->client).
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
		for _, sh := range []MatShape{{8, 16, 1}, {8, 16, 3}} {
			p := Params{Ring: ring.New(l), Scheme: c.scheme}
			stats := runTriplets(t, p, sh, ModeFor(sh.O), 500)
			var payloadBits, colBits int64
			for f := 0; f < c.scheme.Gamma(); f++ {
				n := int64(c.scheme.FragmentN(f))
				per := int64(sh.M * sh.N)
				payloadBits += per * int64(sh.O) * l * (n - 1)
				colBits += per * c.width
			}
			if got := stats.BytesAB * 8; got != payloadBits {
				t.Errorf("%s o=%d: client payload %d bits, want %d", c.scheme.Name(), sh.O, got, payloadBits)
			}
			if got := stats.BytesBA * 8; got != colBits {
				t.Errorf("%s o=%d: server columns %d bits, want %d", c.scheme.Name(), sh.O, got, colBits)
			}
			cx := OfflineComplexity(l, c.scheme, sh)
			if got := float64(stats.TotalBytes() * 8); got != cx.CommBits {
				t.Errorf("%s o=%d: measured %v bits, formula %v", c.scheme.Name(), sh.O, got, cx.CommBits)
			}
			if want := float64(payloadBits + int64(p.NumOTs(sh))*2*otext.Kappa); cx.PaperBits != want {
				t.Errorf("%s o=%d: paper-faithful formula %v bits, want %v", c.scheme.Name(), sh.O, cx.PaperBits, want)
			}
		}
	}

	// QUOTIENT through the backend dispatch: two 1-out-of-2 OTs per
	// weight, o*l payload bits and the 128-bit repetition code's columns
	// each, at any o. The N = 2 code is a prefix of the ternary session's.
	for _, o := range []int{1, 3} {
		sh := MatShape{8, 16, o}
		p := Params{Ring: ring.New(l), Scheme: quant.Ternary()}
		ct, st, meter, done := tripletPair(t, p)
		W := randomWeights(quant.Quotient(), sh.M*sh.N, 4)
		R := prg.New(prg.SeedFromInt(3)).Mat(p.Ring, sh.N, o)
		meter.Reset()
		var (
			V    *ring.Mat
			cerr error
			wg   sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			V, cerr = ct.GenerateBaseline(BackendQuotient, sh, R)
		}()
		U, serr := st.GenerateBaseline(BackendQuotient, sh, W)
		wg.Wait()
		done()
		if cerr != nil || serr != nil {
			t.Fatalf("quotient o=%d: client=%v server=%v", o, cerr, serr)
		}
		if !p.Ring.EqualMat(p.Ring.AddMat(U, V), plainProduct(p, sh, W, R)) {
			t.Errorf("quotient o=%d: U + V != W * R", o)
		}
		stats := meter.Snapshot()
		if got, want := stats.BytesBA*8, int64(2*sh.M*sh.N*128); got != want {
			t.Errorf("quotient o=%d: server columns %d bits, want %d", o, got, want)
		}
		if got, want := float64(stats.TotalBytes()*8), QuotientComplexity(l, sh).CommBits; got != want {
			t.Errorf("quotient o=%d: measured %v bits, formula %v", o, got, want)
		}
	}
}

// One-batch must send one l-bit ciphertext per OT less than naive-N, the
// Fig. 3 protocol's N of them (the section 4.1.3 claim).
func TestOneBatchBeatsNaive(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 4)} // N = 4
	sh := MatShape{M: 4, N: 8, O: 1}
	sOne := runTriplets(t, p, sh, OneBatch, 600)
	ots := int64(p.NumOTs(sh))
	if naive := ots * 4 * 4; sOne.BytesAB != naive-ots*4 {
		t.Errorf("one-batch payload %d bytes, want naive %d less one 4-byte ciphertext per OT", sOne.BytesAB, naive)
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

// highBitFlipper flips, once armed, the bits above a 33-bit ring's l in
// every 5-byte element of the flights it sends: on the client that is
// every candidate's ciphertext of every OT of a payload flight.
type highBitFlipper struct {
	transport.Conn
	armed bool
}

func (h *highBitFlipper) Send(msg []byte) error {
	if h.armed {
		msg = append([]byte(nil), msg...)
		for e := 4; e < len(msg); e += 5 {
			msg[e] ^= 0xFE
		}
	}
	return h.Conn.Send(msg)
}

// TestPayloadHighBitsNeverAbort: the server drops the bits above l of a
// decrypted payload element; it never checks them. The client knows every
// candidate's pad, so an abort that depended on them would depend on the
// server's choice alone, a selective-failure leak of its weight fragment.
// At l = 33, flipping the seven spare bits of every element of every
// candidate leaves U bit-identical and returns no error, in both modes,
// with weights that give each fragment every one of its choices.
func TestPayloadHighBitsNeverAbort(t *testing.T) {
	p := Params{Ring: ring.New(33), Scheme: quant.NewBitScheme(true, 2, 2), Workers: 2}
	lo, hi := p.Scheme.Range()
	var W []int64
	for w := lo; w <= hi; w++ {
		W = append(W, w)
	}
	choices, err := quant.DecomposeAll(p.Scheme, W)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < p.Scheme.Gamma(); f++ {
		seen := map[int]bool{}
		for j := f; j < len(choices); j += p.Scheme.Gamma() {
			seen[choices[j]] = true
		}
		if len(seen) != p.Scheme.FragmentN(f) {
			t.Fatalf("fragment %d takes %d of its %d choices", f, len(seen), p.Scheme.FragmentN(f))
		}
	}
	for _, o := range []int{1, 3} {
		sh := MatShape{M: 2, N: len(W) / 2, O: o}
		R := prg.New(prg.SeedFromInt(5)).Mat(p.Ring, sh.N, sh.O)
		var us [2]*ring.Mat
		for flip := range us {
			ca, cb := transport.Pipe()
			cc := &highBitFlipper{Conn: ca}
			var (
				ct       *ClientTriplets
				V        *ring.Mat
				cerr     error
				wg       sync.WaitGroup
				st       *ServerTriplets
				serr     error
				flipping = flip == 1
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ct, cerr = NewClientTriplets(cc, p, 3, prg.New(prg.SeedFromInt(11)))
			}()
			st, serr = NewServerTripletsSeeded(cb, p, 3, prg.New(prg.SeedFromInt(12)))
			wg.Wait()
			if cerr != nil || serr != nil {
				t.Fatalf("setup: client=%v server=%v", cerr, serr)
			}
			cc.armed = flipping
			wg.Add(1)
			go func() {
				defer wg.Done()
				V, cerr = ct.GenerateClient(sh, R, MultiBatch)
			}()
			us[flip], serr = st.GenerateServer(sh, W, MultiBatch)
			wg.Wait()
			ca.Close()
			if cerr != nil || serr != nil {
				t.Fatalf("o=%d flipped=%v: client=%v server=%v", o, flipping, cerr, serr)
			}
			if !flipping && !p.Ring.EqualMat(p.Ring.AddMat(us[0], V), plainProduct(p, sh, W, R)) {
				t.Fatalf("o=%d: U + V != W * R", o)
			}
		}
		for k := range us[0].Data {
			if us[0].Data[k] != us[1].Data[k] {
				t.Fatalf("o=%d: U[%d] = %#x with the high bits flipped, %#x without", o, k, us[1].Data[k], us[0].Data[k])
			}
		}
	}
}
