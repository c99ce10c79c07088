package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abnn2/internal/leakcheck"
	"abnn2/internal/par"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
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
		{"above-window/one-batch", MatShape{M: 11, N: 4000, O: 1}, OneBatch, 11},
		{"above-window/multi-batch", MatShape{M: 11, N: 4000, O: 3}, MultiBatch, 11},
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
	sh := MatShape{M: 11, N: 4000, O: 1}
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
// transposed t, are chunkOTs x 256 bits each.
func TestOfflineWindowMemoryBound(t *testing.T) {
	per := chunkOTs * 256 / 8
	if got, want := OfflineWindow*2*per, 2<<20; got != want {
		t.Errorf("window pins %d bytes, documented bound is %d", got, want)
	}
}
