package serve

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"abnn2"
	"abnn2/internal/metrics"
)

// serveTCP runs an accept loop feeding HandleConn, as cmd/abnn2-server
// does, until the listener closes.
func serveTCP(t *testing.T, rt *Runtime) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _ = rt.HandleConn(ctx, abnn2.Stream(c), c.RemoteAddr().String()) }()
		}
	}()
	return ln.Addr().String(), func() { cancel(); ln.Close() }
}

// TestDialModelRetryOverTCP is the acceptance loop of the backpressure
// design: a saturated server sheds a client with a typed, hinted,
// retryable rejection, and the retrying client completes successfully
// once a slot frees.
func TestDialModelRetryOverTCP(t *testing.T) {
	m := NewMetrics(metrics.NewRegistry())
	rt := testRuntime(t, Options{MaxSessions: 1, Metrics: m})
	addr, stop := serveTCP(t, rt)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Client 1 takes the only slot and holds it mid-protocol.
	hold, _, err := DialModelInfo(ctx, addr, "")
	if err != nil {
		t.Fatalf("holder dial: %v", err)
	}

	// Verify a bare handshake is shed while the slot is held.
	conn, err := abnn2.DialTCP(ctx, addr)
	if err != nil {
		t.Fatalf("probe dial: %v", err)
	}
	_, err = ClientHandshakeInfo(conn, "")
	conn.Close()
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Rejection.Code != RejectSaturated {
		t.Fatalf("probe err = %v, want saturated rejection", err)
	}
	if rej.Rejection.RetryAfter() <= 0 {
		t.Fatalf("saturated rejection carried no retry hint: %+v", rej.Rejection)
	}

	// Client 2 retries through DialModelInfo while the slot frees shortly.
	var released atomic.Bool
	go func() {
		time.Sleep(150 * time.Millisecond)
		released.Store(true)
		hold.Close()
	}()
	conn2, info, err := DialModelInfo(ctx, addr, "")
	if err != nil {
		t.Fatalf("retrying dial: %v", err)
	}
	if !released.Load() {
		t.Error("retrying client admitted while the slot was still held")
	}
	client, err := abnn2.Dial(conn2, info.Arch, abnn2.Config{RingBits: 32, RoundTimeout: testRoundTimeout})
	if err != nil {
		t.Fatalf("session dial: %v", err)
	}
	defer client.Close()
	if _, err := client.Classify(testInputs(2)); err != nil {
		t.Fatalf("classify after retry: %v", err)
	}

	if shed := m.Shed.With(RejectSaturated).Value(); shed < 1 {
		t.Errorf("shed[saturated] = %d, want >= 1", shed)
	}
	if m.ShedHinted.Value() != m.Shed.With(RejectSaturated).Value() {
		t.Errorf("hinted sheds %d != saturated sheds %d — a shed without a hint",
			m.ShedHinted.Value(), m.Shed.With(RejectSaturated).Value())
	}
}

// TestDialModelPermanentRejection: an unknown model must fail fast, not
// consume the whole dial budget retrying.
func TestDialModelPermanentRejection(t *testing.T) {
	rt := testRuntime(t, Options{})
	addr, stop := serveTCP(t, rt)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, _, err := DialModelInfo(ctx, addr, "no-such-model")
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Rejection.Code != RejectUnknownModel {
		t.Fatalf("err = %v, want unknown-model rejection", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("permanent rejection took %v — it was retried", elapsed)
	}
}
