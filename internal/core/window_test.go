package core

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abnn2/internal/leakcheck"
	"abnn2/internal/nn"
	"abnn2/internal/otext"
	"abnn2/internal/par"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/trace"
	"abnn2/internal/transport"
)

// The pipelined offline phase: the server's producer may send u matrices
// for at most OfflineWindow chunks beyond the payloads it has received,
// and every way the layer can end — success, peer error, producer panic —
// must leave no producer goroutine behind.

// windowProbe wraps the server's endpoint and tracks how far its sends
// run ahead of its receives.
type windowProbe struct {
	transport.Conn
	mu                    sync.Mutex
	sent, recvd, maxAhead int
	panicAt               int // 1-based send to panic on; 0 = never
	panicWith             any
}

func (p *windowProbe) Send(msg []byte) error {
	p.mu.Lock()
	p.sent++
	if ahead := p.sent - p.recvd; ahead > p.maxAhead {
		p.maxAhead = ahead
	}
	boom := p.panicAt != 0 && p.sent == p.panicAt
	p.mu.Unlock()
	if boom {
		panic(p.panicWith)
	}
	return p.Conn.Send(msg)
}

func (p *windowProbe) Recv() ([]byte, error) {
	msg, err := p.Conn.Recv()
	if err == nil {
		p.mu.Lock()
		p.recvd++
		p.mu.Unlock()
	}
	return msg, err
}

func (p *windowProbe) counts() (sent, recvd, maxAhead int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent, p.recvd, p.maxAhead
}

func (p *windowProbe) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sent, p.recvd, p.maxAhead = 0, 0, 0
}

// gatedConn wraps the client's endpoint: while armed, every Send (a
// payload flight) first takes a token from release, so the test decides
// when the server is paid.
type gatedConn struct {
	transport.Conn
	armed   atomic.Bool
	release chan struct{}
}

func (g *gatedConn) Send(msg []byte) error {
	if g.armed.Load() {
		<-g.release
	}
	return g.Conn.Send(msg)
}

// windowPair sets up a triplet pair whose server end is probed and whose
// client end is gated. Counters start at zero after the base-OT setup.
func windowPair(t *testing.T, p Params) (*ClientTriplets, *ServerTriplets, *windowProbe, *gatedConn) {
	t.Helper()
	ca, cb := transport.Pipe()
	t.Cleanup(func() { ca.Close() })
	gate := &gatedConn{Conn: ca, release: make(chan struct{}, 1024)}
	probe := &windowProbe{Conn: cb}
	var (
		ct   *ClientTriplets
		cerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ct, cerr = NewClientTriplets(gate, p, 1, prg.New(prg.SeedFromInt(10)))
	}()
	st, serr := NewServerTripletsSeeded(probe, p, 1, prg.New(prg.SeedFromInt(11)))
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("setup: client=%v server=%v", cerr, serr)
	}
	probe.reset()
	return ct, st, probe, gate
}

// waitSent polls until the probe has seen want sends, then holds for a
// moment and requires the count to still be want: the producer reached
// the bound and stayed there.
func waitSent(t *testing.T, probe *windowProbe, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		sent, _, _ := probe.counts()
		if sent >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: server sent %d u flights, want %d", what, sent, want)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if sent, recvd, _ := probe.counts(); sent != want {
		t.Fatalf("%s: server sent %d u flights with %d payloads received, want exactly %d", what, sent, recvd, want)
	}
}

// TestOfflineWindowBound withholds the client's payloads and checks that
// the server sends exactly min(chunks, OfflineWindow) u flights and then
// blocks, advances by exactly one per payload it is paid, is never more
// than OfflineWindow ahead over the whole layer, and still produces a
// correct triplet.
func TestOfflineWindowBound(t *testing.T) {
	// Binary scheme: gamma = 1, so a layer has M*N OTs.
	cases := []struct {
		name   string
		sh     MatShape
		mode   Mode
		chunks int
	}{
		{"one-chunk/one-batch", MatShape{M: 3, N: 5, O: 1}, OneBatch, 1},
		{"one-chunk/multi-batch", MatShape{M: 3, N: 5, O: 4}, MultiBatch, 1},
		{"below-window/one-batch", MatShape{M: 3, N: 4000, O: 1}, OneBatch, 3},
		{"below-window/multi-batch", MatShape{M: 3, N: 4000, O: 3}, MultiBatch, 3},
		{"above-window/one-batch", MatShape{M: OfflineWindow + 3, N: 4000, O: 1}, OneBatch, OfflineWindow + 3},
		{"above-window/multi-batch", MatShape{M: OfflineWindow + 3, N: 4000, O: 3}, MultiBatch, OfflineWindow + 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := Params{Ring: ring.New(32), Scheme: quant.Binary()}
			if got := (p.NumOTs(tc.sh) + chunkOTs - 1) / chunkOTs; got != tc.chunks {
				t.Fatalf("shape %+v is %d chunks, case says %d", tc.sh, got, tc.chunks)
			}
			base := leakcheck.Base()
			ct, st, probe, gate := windowPair(t, p)
			W := randomWeights(p.Scheme, tc.sh.M*tc.sh.N, 7)
			R := prg.New(prg.SeedFromInt(8)).Mat(p.Ring, tc.sh.N, tc.sh.O)

			gate.armed.Store(true)
			var (
				V    *ring.Mat
				cerr error
				U    *ring.Mat
				serr error
				wg   sync.WaitGroup
			)
			wg.Add(2)
			go func() {
				defer wg.Done()
				V, cerr = ct.GenerateClient(tc.sh, R, tc.mode)
			}()
			go func() {
				defer wg.Done()
				U, serr = st.GenerateServer(tc.sh, W, tc.mode)
			}()

			ahead := tc.chunks
			if ahead > OfflineWindow {
				ahead = OfflineWindow
			}
			waitSent(t, probe, ahead, "payloads withheld")
			if tc.chunks > OfflineWindow {
				gate.release <- struct{}{}
				waitSent(t, probe, OfflineWindow+1, "one payload paid")
			}
			for i := 0; i < tc.chunks; i++ {
				gate.release <- struct{}{}
			}
			wg.Wait()
			if cerr != nil || serr != nil {
				t.Fatalf("client=%v server=%v", cerr, serr)
			}
			sent, recvd, maxAhead := probe.counts()
			if sent != tc.chunks || recvd != tc.chunks {
				t.Errorf("server sent %d and received %d flights, want %d each", sent, recvd, tc.chunks)
			}
			if maxAhead > OfflineWindow {
				t.Errorf("server ran %d chunks ahead, window is %d", maxAhead, OfflineWindow)
			}
			if !p.Ring.EqualMat(p.Ring.AddMat(U, V), plainProduct(p, tc.sh, W, R)) {
				t.Error("U + V != W * R")
			}
			leakcheck.Settle(t, base, tc.name)
		})
	}
}

// TestOfflineProducerPanicResurfacesOnCaller injects a panic inside the
// producer's Extend (its Send of the k-th u matrix panics) and requires
// it to come back out of GenerateServer on the calling goroutine as a
// *par.ChunkPanic — the value the session guard turns into *PanicError —
// with the producer gone. A *par.ChunkPanic rethrown by a worker-pool
// chunk inside Extend must pass through unchanged.
func TestOfflineProducerPanicResurfacesOnCaller(t *testing.T) {
	rethrown := &par.ChunkPanic{Value: "chunk boom", Stack: []byte("pool worker stack")}
	for _, tc := range []struct {
		name string
		with any
		at   int
	}{
		{"plain-first-chunk", "boom", 1},
		{"plain-mid-layer", errors.New("boom"), 5},
		{"rethrown-chunk-panic", rethrown, 3},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := Params{Ring: ring.New(32), Scheme: quant.Binary()}
			sh := MatShape{M: 11, N: 4000, O: 1}
			base := leakcheck.Base()
			ct, st, probe, _ := windowPair(t, p)
			probe.panicAt, probe.panicWith = tc.at, tc.with

			cdone := make(chan error, 1)
			go func() {
				_, err := ct.GenerateClient(sh, ring.NewMat(sh.N, sh.O), OneBatch)
				cdone <- err
			}()
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				_, err := st.GenerateServer(sh, make([]int64, sh.M*sh.N), OneBatch)
				t.Errorf("GenerateServer returned (err=%v), want a panic", err)
			}()
			cp, ok := recovered.(*par.ChunkPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *par.ChunkPanic", recovered, recovered)
			}
			if want, isCP := tc.with.(*par.ChunkPanic); isCP {
				if cp != want {
					t.Errorf("rethrown chunk panic was re-wrapped: %+v", cp)
				}
			} else if cp.Value != tc.with || len(cp.Stack) == 0 {
				t.Errorf("panic value %v (stack %d bytes), want %v with the producer's stack", cp.Value, len(cp.Stack), tc.with)
			}
			// The server is gone mid-layer; hanging up releases the client.
			probe.Close()
			if err := <-cdone; err == nil {
				t.Error("client completed a layer the server abandoned")
			}
			leakcheck.Settle(t, base, tc.name)
		})
	}
}

// TestOfflineConsumerErrorStopsProducer: a malformed payload fails the
// consumer while the producer is parked at the window; the call must
// return the decode error promptly and take the producer with it.
func TestOfflineConsumerErrorStopsProducer(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Binary()}
	sh := MatShape{M: OfflineWindow + 3, N: 4000, O: 1}
	base := leakcheck.Base()
	_, st, probe, gate := windowPair(t, p)

	errc := make(chan error, 1)
	go func() {
		_, err := st.GenerateServer(sh, make([]int64, sh.M*sh.N), OneBatch)
		errc <- err
	}()
	waitSent(t, probe, OfflineWindow, "no client")
	// Pay the first chunk with a payload of the wrong size.
	if err := gate.Conn.Send([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("server accepted a 3-byte payload")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not return after a malformed payload")
	}
	if sent, _, _ := probe.counts(); sent != OfflineWindow {
		t.Errorf("server sent %d u flights, want %d", sent, OfflineWindow)
	}
	leakcheck.Settle(t, base, "consumer error")
}

// TestOfflineFlights: what the planner prices — two waited-on flights
// per window of chunks.
func TestOfflineFlights(t *testing.T) {
	for _, tc := range []struct {
		ots  int64
		want int
	}{
		{1, 2},
		{chunkOTs * OfflineWindow, 2},
		{chunkOTs*OfflineWindow + 1, 4},
		{chunkOTs * OfflineWindow * 3, 6},
	} {
		if got := OfflineFlights(tc.ots); got != tc.want {
			t.Errorf("OfflineFlights(%d) = %d, want %d", tc.ots, got, tc.want)
		}
	}
}

// TestOfflineWindowMemoryBound pins the per-session memory bound that
// DESIGN.md and SECURITY.md state for the window: one chunk's u, and its
// transposed t, are chunkOTs x the layer's code width each — 192 bits at
// N = 4, 256 at the widest code.
func TestOfflineWindowMemoryBound(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
	}{
		{4, 2<<20 + 1<<18}, // 2.25 MiB
		{256, 3 << 20},
	} {
		per := chunkOTs * otext.WalshHadamardCode(tc.n).WidthBits() / 8
		if got := OfflineWindow * 2 * per; got != tc.want {
			t.Errorf("N=%d: window pins %d bytes, documented bound is %d", tc.n, got, tc.want)
		}
	}
}

// TestOfflineRowScratchBounded: the server's row matrices come back to
// its OT receiver as each chunk is decoded, and under generateServer the
// free list they wait in never holds more than the blocks alive at once
// can hand back — OfflineWindow, plus one of slack — over the first
// Fig. 4 layer's 49 chunks, at either worker count.
func TestOfflineRowScratchBounded(t *testing.T) {
	for _, workers := range []int{1, 8} {
		p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 2), Workers: workers}
		ct, st, _, done := tripletPair(t, p)
		sh := MatShape{M: 128, N: 784, O: 1}
		W := randomWeights(p.Scheme, sh.M*sh.N, 5)
		R := prg.New(prg.SeedFromInt(6)).Mat(p.Ring, sh.N, sh.O)
		var (
			V    *ring.Mat
			cerr error
			wg   sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			V, cerr = ct.GenerateClient(sh, R, OneBatch)
		}()
		U, serr := st.GenerateServer(sh, W, OneBatch)
		wg.Wait()
		done()
		if cerr != nil || serr != nil {
			t.Fatalf("workers=%d: client=%v server=%v", workers, cerr, serr)
		}
		if !p.Ring.EqualMat(p.Ring.AddMat(U, V), plainProduct(p, sh, W, R)) {
			t.Fatalf("workers=%d: U + V != W * R", workers)
		}
		peak := st.ot.RowScratchPeak()
		t.Logf("workers=%d: %d chunks, at most %d row matrices free at once", workers, (p.NumOTs(sh)+chunkOTs-1)/chunkOTs, peak)
		if peak < 1 || peak > OfflineWindow+1 {
			t.Errorf("workers=%d: free list peaked at %d row matrices, want 1..%d", workers, peak, OfflineWindow+1)
		}
	}
}

// A run: consecutive ABNN2 layers share one pipeline, so the window —
// and every abort path — spans layer boundaries.

// runModel is an untrained binary MLP; with one weight per OT a layer of
// out x in weights is ceil(out*in/4096) chunks.
func runModel(sizes ...int) *nn.QuantizedModel {
	m := nn.NewModel(sizes...)
	m.InitXavier(prg.New(prg.SeedFromInt(12)))
	return nn.Quantize(m, quant.Binary(), 4)
}

// layerChunks returns each layer's chunk count at batch 1.
func layerChunks(p Params, qm *nn.QuantizedModel) []int {
	out := make([]int, len(qm.Layers))
	for li, l := range qm.Layers {
		out[li] = serverLayer{params: p, sh: MatShape{M: l.Out, N: l.ColRows(), O: 1}}.chunks()
	}
	return out
}

// offlinePair runs both parties' OfflineCorrSched at batch 1 on their
// own goroutines and returns a function that waits for both.
func offlinePair(ct *ClientTriplets, st *ServerTriplets, qm *nn.QuantizedModel, sched Schedule) func() (*ClientCorr, *ServerCorr, error, error) {
	var (
		cc         *ClientCorr
		sc         *ServerCorr
		cerr, serr error
		wg         sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		cc, cerr = ct.OfflineCorrSched(ArchOf(qm), prg.New(prg.SeedFromInt(13)), 1, sched)
	}()
	go func() {
		defer wg.Done()
		sc, serr = st.OfflineCorrSched(qm, 1, sched)
	}()
	return func() (*ClientCorr, *ServerCorr, error, error) {
		wg.Wait()
		return cc, sc, cerr, serr
	}
}

// checkCorr requires U + V = W * R on every layer of an MLP whose hidden
// layers all end in a ReLU: R is the input mask, then the client's
// pre-chosen share of the previous activation.
func checkCorr(t *testing.T, p Params, qm *nn.QuantizedModel, cc *ClientCorr, sc *ServerCorr) {
	t.Helper()
	r := cc.R0
	for li, l := range qm.Layers {
		sh := MatShape{M: l.Out, N: l.In, O: 1}
		if !p.Ring.EqualMat(p.Ring.AddMat(sc.U[li], cc.V[li]), plainProduct(p, sh, l.W, r)) {
			t.Errorf("layer %d: U + V != W * R", li)
		}
		r = cc.Z1[li]
	}
}

// TestOfflineRunWindowBound withholds the client's payloads on a
// three-layer model: the server sends exactly min(chunks of the run,
// OfflineWindow) u flights — across both layer boundaries — and then
// blocks, advances by one per payload it is paid, and is never more than
// the window ahead over the whole run.
func TestOfflineRunWindowBound(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Binary()}
	qm := runModel(200, 100, 200, 100)
	per := layerChunks(p, qm)
	chunks := per[0] + per[1] + per[2]
	if per[0] >= OfflineWindow || per[0]+per[1] >= OfflineWindow || chunks <= OfflineWindow {
		t.Fatalf("layers of %v chunks do not put two boundaries inside a window of %d", per, OfflineWindow)
	}
	base := leakcheck.Base()
	ct, st, probe, gate := windowPair(t, p)
	gate.armed.Store(true)
	wait := offlinePair(ct, st, qm, nil)
	waitSent(t, probe, OfflineWindow, "payloads withheld")
	gate.release <- struct{}{}
	waitSent(t, probe, OfflineWindow+1, "one payload paid")
	for i := 0; i < chunks; i++ {
		gate.release <- struct{}{}
	}
	cc, sc, cerr, serr := wait()
	if cerr != nil || serr != nil {
		t.Fatalf("client=%v server=%v", cerr, serr)
	}
	sent, recvd, maxAhead := probe.counts()
	if sent != chunks || recvd != chunks {
		t.Errorf("server sent %d and received %d flights, want %d each", sent, recvd, chunks)
	}
	if maxAhead > OfflineWindow {
		t.Errorf("server ran %d chunks ahead, window is %d", maxAhead, OfflineWindow)
	}
	checkCorr(t, p, qm, cc, sc)
	leakcheck.Settle(t, base, "run window")
}

// TestOfflineRunEndsAtBaseline: under [abnn2, minionn, abnn2] the middle
// layer's messages go both ways, so the first run must drain before it —
// with payloads withheld the server sends layer 0's u flights and not one
// of layer 2's, although all of them would fit in the window.
func TestOfflineRunEndsAtBaseline(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Binary(), MiniONNBits: 512}
	qm := runModel(120, 100, 30, 400)
	per := layerChunks(p, qm)
	if per[0]+per[2] > OfflineWindow {
		t.Fatalf("layers of %v chunks: the window of %d would stop the server anyway", per, OfflineWindow)
	}
	sched := Schedule{{Backend: BackendABNN2}, {Backend: BackendMiniONN}, {Backend: BackendABNN2}}
	base := leakcheck.Base()
	ct, st, probe, gate := windowPair(t, p)
	gate.armed.Store(true)
	wait := offlinePair(ct, st, qm, sched)
	waitSent(t, probe, per[0], "payloads withheld")
	gate.armed.Store(false)
	gate.release <- struct{}{} // the one Send already parked at the gate
	cc, sc, cerr, serr := wait()
	if cerr != nil || serr != nil {
		t.Fatalf("client=%v server=%v", cerr, serr)
	}
	if _, _, maxAhead := probe.counts(); maxAhead > OfflineWindow {
		t.Errorf("server ran %d messages ahead, window is %d", maxAhead, OfflineWindow)
	}
	checkCorr(t, p, qm, cc, sc)
	leakcheck.Settle(t, base, "run ends at baseline")
}

// TestOfflineBaselineOnlyPlan: a plan of SecureML and QUOTIENT layers
// alone, on generators with no columns yet, is one triplet run under the
// two fixed schemes. It widens both parties to the N = 2 code's 128
// columns and no further, and every layer is exact at l = 64, where a
// weight of -1 sets all 64 of SecureML's bits.
func TestOfflineBaselineOnlyPlan(t *testing.T) {
	p := Params{Ring: ring.New(64), Scheme: quant.NewBitScheme(true, 4)} // N = 16: 240 columns, never run
	m := nn.NewModel(12, 9, 7, 5)
	m.InitXavier(prg.New(prg.SeedFromInt(12)))
	qm := nn.Quantize(m, quant.Ternary(), 4) // -1 sets every bit, the top one too
	ca, cb := transport.Pipe()
	defer ca.Close()
	ct, err := OpenClientTriplets(ca, p, 1, prg.New(prg.SeedFromInt(10)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenServerTriplets(cb, p, 1, prg.New(prg.SeedFromInt(11)))
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{{Backend: BackendSecureML}, {Backend: BackendQuotient}, {Backend: BackendSecureML}}
	cc, sc, cerr, serr := offlinePair(ct, st, qm, sched)()
	if cerr != nil || serr != nil {
		t.Fatalf("client=%v server=%v", cerr, serr)
	}
	if c, s := ct.ot.Columns(), st.ot.Columns(); c != 128 || s != 128 {
		t.Errorf("client holds %d columns and server %d, want the repetition code's 128", c, s)
	}
	checkCorr(t, p, qm, cc, sc)
}

// TestOfflineRunProducerPanicInSecondLayer: the producer panics on a u
// flight of the run's second layer while the consumer is still decoding
// the first; the panic must reach OfflineCorrSched's caller as a
// *par.ChunkPanic with the producer gone.
func TestOfflineRunProducerPanicInSecondLayer(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Binary()}
	qm := runModel(200, 100, 200)
	per := layerChunks(p, qm)
	base := leakcheck.Base()
	ct, st, probe, _ := windowPair(t, p)
	probe.panicAt, probe.panicWith = per[0]+2, "boom in layer 1"

	cdone := make(chan error, 1)
	go func() {
		_, err := ct.OfflineCorrSched(ArchOf(qm), prg.New(prg.SeedFromInt(13)), 1, nil)
		cdone <- err
	}()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_, err := st.OfflineCorrSched(qm, 1, nil)
		t.Errorf("OfflineCorrSched returned (err=%v), want a panic", err)
	}()
	if cp, ok := recovered.(*par.ChunkPanic); !ok || cp.Value != "boom in layer 1" {
		t.Fatalf("recovered %T (%v), want the producer's *par.ChunkPanic", recovered, recovered)
	}
	probe.Close()
	if err := <-cdone; err == nil {
		t.Error("client completed a run the server abandoned")
	}
	leakcheck.Settle(t, base, "producer panic in second layer")
}

// TestOfflineRunConsumerErrorInFirstLayer: a malformed payload for the
// run's first chunk arrives while the producer is parked a window ahead,
// inside the second layer; the call returns the error, naming the layer
// the consumer was in, and takes the producer with it.
func TestOfflineRunConsumerErrorInFirstLayer(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Binary()}
	qm := runModel(200, 100, 200, 100)
	if per := layerChunks(p, qm); per[0] >= OfflineWindow {
		t.Fatalf("first layer of %d chunks fills the window of %d", per[0], OfflineWindow)
	}
	base := leakcheck.Base()
	_, st, probe, gate := windowPair(t, p)
	errc := make(chan error, 1)
	go func() {
		_, err := st.OfflineCorrSched(qm, 1, nil)
		errc <- err
	}()
	waitSent(t, probe, OfflineWindow, "no client")
	if err := gate.Conn.Send([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "layer 0") {
			t.Fatalf("server returned %v, want a decode error in layer 0", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not return after a malformed payload")
	}
	if sent, _, _ := probe.counts(); sent != OfflineWindow {
		t.Errorf("server sent %d u flights, want %d", sent, OfflineWindow)
	}
	leakcheck.Settle(t, base, "consumer error in first layer")
}

// TestOfflineRunSurvivesDisconnectAtEveryMessage cuts the connection at
// every message of a session whose offline phase is one two-layer run
// longer than the window, from each side in turn: both parties must
// return an error, never hang, and leave no goroutine behind.
func TestOfflineRunSurvivesDisconnectAtEveryMessage(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Binary()}
	qm := runModel(200, 140, 200)
	if per := layerChunks(p, qm); per[0] >= OfflineWindow || per[0]+per[1] <= OfflineWindow {
		t.Fatalf("layers of %v chunks: want the boundary inside a window of %d and the run beyond it", per, OfflineWindow)
	}
	run := func(cliPlan, srvPlan transport.FaultPlan) (cerr, serr error, fc, fs *transport.FaultConn) {
		return runOfflineFaulted(t, cliPlan, srvPlan,
			func(ct *ClientTriplets) error {
				_, err := ct.OfflineCorrSched(ArchOf(qm), prg.New(prg.SeedFromInt(13)), 1, nil)
				return err
			},
			func(st *ServerTriplets) error {
				_, err := st.OfflineCorrSched(qm, 1, nil)
				return err
			})
	}
	cerr, serr, fc, fs := run(transport.FaultPlan{}, transport.FaultPlan{})
	if cerr != nil || serr != nil {
		t.Fatalf("clean run failed: client=%v server=%v", cerr, serr)
	}
	base := leakcheck.Base()
	for i := 0; i < fc.Sends(); i++ {
		cerr, serr, _, _ := run(transport.FaultPlan{Class: transport.FaultDisconnect, Message: i}, transport.FaultPlan{})
		if cerr == nil || serr == nil {
			t.Errorf("client disconnect at message %d: client=%v server=%v (both should error)", i, cerr, serr)
		}
	}
	for i := 0; i < fs.Sends(); i++ {
		cerr, serr, _, _ := run(transport.FaultPlan{}, transport.FaultPlan{Class: transport.FaultDisconnect, Message: i})
		if cerr == nil || serr == nil {
			t.Errorf("server disconnect at message %d: client=%v server=%v (both should error)", i, cerr, serr)
		}
	}
	leakcheck.Settle(t, base, "run disconnects")
}

// TestPlannedBatchWidensOnce: a 4(2,2) session (192 columns) given a
// batch whose plan re-fragments a layer to 4(4) (N = 16, 240 columns)
// runs base OTs for the 48 missing columns before that batch's first
// layer — one more "baseot" span per party, outside set-up — none on the
// next batch, and both batches equal plaintext.
func TestPlannedBatchWidensOnce(t *testing.T) {
	scheme := quant.Uniform(2, 2)
	qm := buildTestModel(t, scheme)
	arch := ArchOf(qm)
	sched := Schedule{{Backend: BackendABNN2}, {Backend: BackendABNN2, Scheme: quant.NewBitScheme(true, 4)}}
	var csink, ssink trace.Collector
	params := func(sink *trace.Collector, party string) Params {
		return Params{Ring: ring.New(32), Scheme: scheme, Trace: trace.New(sink, trace.WithParty(party))}
	}
	ca, cb := transport.Pipe()
	defer ca.Close()
	const batches = 2
	var (
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var srv *ServerEngine
		if srv, serr = NewServerEngine(ca, qm, params(&ssink, "server"), ReLUGC); serr != nil {
			return
		}
		if serr = srv.SetSchedule(sched); serr != nil {
			return
		}
		for b := 0; b < batches && serr == nil; b++ {
			if serr = srv.Offline(1); serr == nil {
				serr = srv.Online()
			}
		}
	}()
	p := params(&csink, "client")
	cli, err := NewClientEngine(cb, arch, p, ReLUGC, prg.New(prg.SeedFromInt(33)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.SetSchedule(sched); err != nil {
		t.Fatal(err)
	}
	baseots := func(sink *trace.Collector) (batch []int) {
		for _, sp := range sink.Spans() {
			if sp.Name == "baseot" {
				batch = append(batch, sp.Batch)
			}
		}
		return batch
	}
	for b := 0; b < batches; b++ {
		if err := cli.Offline(1); err != nil {
			t.Fatalf("batch %d offline: %v", b, err)
		}
		X := prg.New(prg.SeedFromInt(uint64(44+b))).Mat(p.Ring, arch.InputSize(), 1)
		got, err := cli.Predict(X)
		if err != nil {
			t.Fatalf("batch %d predict: %v", b, err)
		}
		want := qm.ForwardRing(p.Ring, X.Data)
		for i := range want {
			if got.At(i, 0) != want[i] {
				t.Fatalf("batch %d output %d: secure %d != plaintext %d", b, i, got.At(i, 0), want[i])
			}
		}
		// Set-up's two batches, then the widening, once.
		if got, want := baseots(&csink), []int{192, 128, 48}; !reflect.DeepEqual(got, want) {
			t.Fatalf("after batch %d the client ran base-OT batches %v, want %v", b, got, want)
		}
	}
	wg.Wait()
	if serr != nil {
		t.Fatalf("server: %v", serr)
	}
	if got, want := baseots(&ssink), []int{192, 128, 48}; !reflect.DeepEqual(got, want) {
		t.Errorf("the server ran base-OT batches %v, want %v", got, want)
	}
	// The widening is part of the batch that needed it, not of set-up.
	for _, sp := range csink.Spans() {
		if sp.Name == "baseot" && sp.Batch == 48 {
			for _, parent := range csink.Spans() {
				if parent.ID == sp.Parent && parent.Name != "offline" {
					t.Errorf("widening span sits under %q, want the batch's offline span", parent.Name)
				}
			}
		}
	}
}
