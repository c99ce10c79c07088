package abnn2

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abnn2/internal/core"
	"abnn2/internal/leakcheck"
	"abnn2/internal/transport"
)

// Chaos over the pipelined offline phase. During a layer of more chunks
// than core.OfflineWindow the server runs two goroutines on the session
// connection — a producer sending u matrices ahead and a consumer
// receiving payloads — so every abort path has to stop both: a panic on
// the producer must still reach the session guard, cancellation and the
// round timeout must still end the session promptly, and nothing may be
// left running.

// uFlightBytes is the size of a full chunk's u matrix (the 192 columns of
// the N = 4 code x 4096 OTs), which identifies the offline phase's
// server-to-client flights.
const uFlightBytes = 192 * 4096 / 8

// uCountConn wraps an endpoint and counts the full-size u flights it
// sends and receives; panicAt > 0 makes the panicAt-th such Send panic
// instead, and stallAfter > 0 makes every Send block (until the
// connection is closed) once that many have been received.
type uCountConn struct {
	Conn
	sent, recvd atomic.Int64
	panicAt     int64
	stallAfter  int64
	closed      chan struct{}
	closeOnce   sync.Once
}

func newUCountConn(c Conn) *uCountConn { return &uCountConn{Conn: c, closed: make(chan struct{})} }

func (c *uCountConn) Send(msg []byte) error {
	if len(msg) == uFlightBytes && c.sent.Add(1) == c.panicAt {
		panic("injected panic inside Extend")
	}
	if c.stallAfter > 0 && c.recvd.Load() >= c.stallAfter {
		<-c.closed
		return transport.ErrClosed
	}
	return c.Conn.Send(msg)
}

func (c *uCountConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil && len(msg) == uFlightBytes {
		c.recvd.Add(1)
	}
	return msg, err
}

func (c *uCountConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestChaosPipelinedProducerPanic: a panic on the producer goroutine,
// mid-layer with the window open, must come out of Serve as a
// *PanicError — not kill the process, not hang the consumer.
func TestChaosPipelinedProducerPanic(t *testing.T) {
	qm := chaosPipelinedModel(t)
	base := leakcheck.Base()

	sconn, cconn := Pipe()
	faulty := newUCountConn(sconn)
	faulty.panicAt = 5
	cfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout}
	ccfg := cfg
	ccfg.Seed = 7
	srvErr, cliErr, _ := runParties(t, qm, faulty, cconn, cfg, ccfg)
	var pe *PanicError
	if !errors.As(srvErr, &pe) {
		t.Fatalf("server returned %v, want *PanicError", srvErr)
	}
	if pe.Value != "injected panic inside Extend" || !strings.Contains(string(pe.Stack), "par.Ahead") {
		t.Errorf("PanicError carries value %v and a stack without the producer frame:\n%s", pe.Value, pe.Stack)
	}
	if cliErr == nil {
		t.Error("client completed against a server that panicked mid-layer")
	}
	leakcheck.Settle(t, base, "producer panic")
}

// TestChaosPipelinedStalledClient stalls the client mid-layer — it has
// answered three chunks and goes silent — and waits until the server's
// producer is parked a full window ahead. From that state, cancelling
// the server's context must return context.Canceled well within the
// round timeout, and without cancellation the round timeout itself must
// end the session; either way both server goroutines exit.
func TestChaosPipelinedStalledClient(t *testing.T) {
	// A first layer of 20 chunks (1024 x 40 weights x 2 fragments / 4096):
	// room to answer three and still park a full window beyond them.
	qm, err := NewMLP(1024, 40, 4).Quantize("4(2,2)", 6)
	if err != nil {
		t.Fatal(err)
	}
	const answered = 3

	run := func(t *testing.T, roundTimeout time.Duration, abort func(cancel context.CancelFunc)) (error, time.Duration) {
		sconn, cconn := Pipe()
		counted := newUCountConn(sconn)
		stalled := newUCountConn(cconn)
		stalled.stallAfter = answered + 1 // its Send of payload #4 never happens
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()

		sdone := make(chan error, 1)
		go func() {
			_, err := ServeContext(ctx, counted, qm, Config{RingBits: 32, RoundTimeout: roundTimeout})
			sdone <- err
		}()
		cdone := make(chan error, 1)
		go func() {
			client, err := Dial(stalled, qm.Arch(), Config{RingBits: 32, Seed: 8})
			if err == nil {
				_, err = client.Classify(chaosInputsDim(2, qm.Arch().InputSize()))
			}
			cdone <- err
		}()

		// The producer parks once it is a window beyond the last payload.
		deadline := time.Now().Add(chaosWatchdog)
		for counted.sent.Load() < answered+core.OfflineWindow {
			if time.Now().After(deadline) {
				t.Fatalf("server sent %d u flights, never reached %d", counted.sent.Load(), answered+core.OfflineWindow)
			}
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		abort(cancel)
		var srvErr error
		select {
		case srvErr = <-sdone:
		case <-time.After(chaosWatchdog):
			t.Fatal("server did not return")
		}
		elapsed := time.Since(start)
		if got := counted.sent.Load(); got != answered+core.OfflineWindow {
			t.Errorf("server sent %d u flights against %d payloads, window is %d", got, answered, core.OfflineWindow)
		}
		stalled.Close()
		counted.Close()
		if err := <-cdone; err == nil {
			t.Error("stalled client completed")
		}
		return srvErr, elapsed
	}

	t.Run("cancel", func(t *testing.T) {
		base := leakcheck.Base()
		err, elapsed := run(t, chaosRoundTimeout, func(cancel context.CancelFunc) { cancel() })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("ServeContext returned %v, want context.Canceled", err)
		}
		if elapsed >= chaosRoundTimeout {
			t.Errorf("cancellation took %v, round timeout is %v", elapsed, chaosRoundTimeout)
		}
		leakcheck.Settle(t, base, "cancel mid-layer")
	})
	t.Run("round-timeout", func(t *testing.T) {
		const roundTimeout = 300 * time.Millisecond
		base := leakcheck.Base()
		err, elapsed := run(t, roundTimeout, func(context.CancelFunc) {})
		if err == nil || !transport.IsTimeout(err) {
			t.Errorf("Serve returned %v, want a round timeout", err)
		}
		// One round for the parked state; the slack absorbs a loaded box.
		if elapsed > 10*roundTimeout {
			t.Errorf("round timeout of %v took %v to end the session", roundTimeout, elapsed)
		}
		leakcheck.Settle(t, base, "round timeout mid-layer")
	})
}

// TestSessionConnCancelBeatsConcurrentArm: with one goroutine arming the
// round deadline on every Send while another sits in Recv — the shape of
// the pipelined offline phase — cancellation must still abort the Recv at
// once. A late arm that pushed the watcher's immediate deadline back out
// would leave the Recv blocked for the full round timeout.
func TestSessionConnCancelBeatsConcurrentArm(t *testing.T) {
	const roundTimeout = 5 * time.Second
	for i := 0; i < 100; i++ {
		a, b := transport.Pipe()
		ctx, cancel := context.WithCancel(context.Background())
		sc := newSessionConn(ctx, a, roundTimeout, nil)

		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the peer drains what the sender sends, and never replies
			defer wg.Done()
			for {
				if _, err := b.Recv(); err != nil {
					return
				}
			}
		}()
		go func() { // the sender: arms on every Send until the session aborts
			defer wg.Done()
			for sc.Send([]byte{1}) == nil {
			}
		}()
		recvErr := make(chan error, 1)
		go func() {
			_, err := sc.Recv()
			recvErr <- err
		}()
		time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
		start := time.Now()
		cancel()
		select {
		case err := <-recvErr:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iteration %d: Recv returned %v, want context.Canceled", i, err)
			}
		case <-time.After(roundTimeout / 2):
			t.Fatalf("iteration %d: Recv still blocked %v after cancellation", i, time.Since(start))
		}
		sc.Close()
		wg.Wait()
	}
}
