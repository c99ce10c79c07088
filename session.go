package abnn2

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"abnn2/internal/core"
	"abnn2/internal/par"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/trace"
	"abnn2/internal/transport"
)

// Session hardening: every blocking wire operation of a protocol session
// runs through a sessionConn, which arms a per-round deadline
// (Config.RoundTimeout), aborts mid-round on context cancellation, and
// maps both conditions to useful errors. Panics provoked by malformed
// peer data deeper in the stack are caught at the same boundary by
// guard/guardVal and converted to *PanicError, so one bad peer can
// never hang or kill a process that serves others.

// PanicError is a panic converted to an error at the session boundary.
// Protocol code validates peer messages and returns errors for malformed
// data it anticipates; PanicError is the backstop for the cases it does
// not — typically a shape or size invariant deep in the numeric layers
// violated by a hostile or buggy peer.
type PanicError struct {
	Op    string // the session operation that panicked, e.g. "handle batch"
	Value any    // the original panic value
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("abnn2: panic during %s (malformed peer data?): %v", e.Op, e.Value)
}

// guard runs fn, converting a panic — including one rethrown from a
// worker-pool chunk — into a *PanicError.
func guard(op string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredError(op, r)
		}
	}()
	return fn()
}

// guardVal is guard for operations that return a value.
func guardVal[T any](op string, fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, recoveredError(op, r)
		}
	}()
	return fn()
}

func recoveredError(op string, r any) *PanicError {
	if cp, ok := r.(*par.ChunkPanic); ok {
		return &PanicError{Op: op, Value: cp.Value, Stack: cp.Stack}
	}
	return &PanicError{Op: op, Value: r, Stack: debug.Stack()}
}

// session is what set-up leaves every endpoint with: its hardened
// connection and its span recorder (nil when tracing is off).
type session struct {
	sc *sessionConn
	tr *trace.Tracer
}

// openSession is the one session set-up, under both endpoints (Serve and
// Dial): it validates cfg, wraps conn, builds the party's tracer and
// protocol parameters, and runs setup — the cryptographic set-up, base OTs
// included — under the "setup" span with panics contained. It releases the
// session itself when setup fails; after a nil error the caller owns the
// release.
func openSession[E any](ctx context.Context, conn Conn, cfg Config, party string, scheme quant.Scheme,
	setup func(*sessionConn, core.Params) (E, error)) (session, E, error) {
	var none E
	if err := cfg.Validate(); err != nil {
		return session{}, none, err
	}
	sc := newSessionConn(ctx, conn, cfg.RoundTimeout, cfg.flightFunc(party))
	s := session{sc: sc, tr: cfg.tracer(sc, party)}
	p := core.Params{Ring: ring.New(cfg.ringBits()), Scheme: scheme, Workers: cfg.Workers, Trace: s.tr,
		MiniONNBits: cfg.MiniONNKeyBits}
	sp := s.tr.Start("setup")
	eng, err := guardVal(party+" setup", func() (E, error) { return setup(sc, p) })
	sp.End(err)
	if err != nil {
		sc.release()
		return session{}, none, err
	}
	return s, eng, nil
}

// releaseOn releases the session when a constructor step after set-up
// left *err non-nil; deferred once by the constructors that hand the
// session on.
func (s session) releaseOn(err *error) {
	if *err != nil {
		s.sc.release()
	}
}

// sessionConn wraps the protocol connection of one session. Before each
// blocking operation it arms a deadline of now+RoundTimeout (when
// configured); a cancellation watcher aborts in-flight operations by
// setting an immediate deadline when the session context is cancelled.
//
// Like any Conn it serves one sender beside one receiver — the pipelined
// offline phase sends ahead on one goroutine while another receives. The
// deadline is one per connection, so the two arm it for each other: every
// arm moves it later, an operation therefore never gets less than its own
// RoundTimeout, and may get more while the other direction keeps
// arming (bounded by the offline window). What must not happen is an arm
// on one goroutine pushing the watcher's abort deadline back out; armMu
// orders the two and arm leaves the deadline alone once the context is
// done.
type sessionConn struct {
	inner    Conn
	meter    *transport.Meter
	timeout  time.Duration
	ctx      context.Context
	armMu    sync.Mutex // orders deadline writes against the watcher's abort
	stop     chan struct{}
	stopOnce sync.Once
}

// newSessionConn wraps conn. The watcher goroutine (only started for
// cancellable contexts) exits when the context fires or the session is
// released — Close and release are both sufficient, so sessions never
// leak goroutines.
//
// Every session is metered single-endedly (see transport.MeterEndpoint):
// the cost is one mutex-protected counter update per framed message, no
// allocations, so metering is always on and Stats always available.
//
// obs, when non-nil, is additionally called once per transferred message
// (see transport.MeterEndpointObserved) — the wire-flight stamper behind
// cross-party timeline reconciliation.
func newSessionConn(ctx context.Context, conn Conn, timeout time.Duration, obs transport.FlightFunc) *sessionConn {
	mc, meter := transport.MeterEndpointObserved(conn, obs)
	c := &sessionConn{inner: mc, meter: meter, timeout: timeout, ctx: ctx, stop: make(chan struct{})}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				// Abort any blocked and all future operations. The per-op
				// context check below turns the resulting timeout into the
				// context's error.
				c.armMu.Lock()
				conn.SetDeadline(time.Now())
				c.armMu.Unlock()
			case <-c.stop:
			}
		}()
	}
	return c
}

// release stops the cancellation watcher. Idempotent.
func (c *sessionConn) release() { c.stopOnce.Do(func() { close(c.stop) }) }

// Stats returns this endpoint's traffic totals so far: BytesAB is what
// this party sent, BytesBA what it received.
func (c *sessionConn) Stats() transport.Stats { return c.meter.Snapshot() }

// counters adapts the session meter to the tracer's counter source, so
// spans are stamped with byte/message/flight deltas automatically.
func (c *sessionConn) counters() trace.Counters {
	s := c.meter.Snapshot()
	return trace.Counters{BytesSent: s.BytesAB, BytesRecvd: s.BytesBA, Messages: s.Messages, Flights: s.Flights}
}

// arm sets the round deadline. Streams without deadline support degrade
// to unbounded rounds rather than failing the session.
func (c *sessionConn) arm() { c.setDeadline(time.Now().Add(c.timeout)) }

// setDeadline writes the connection deadline unless the session context
// is already done: from then on the watcher's immediate deadline stands,
// whichever goroutine arms next.
func (c *sessionConn) setDeadline(t time.Time) {
	if c.timeout <= 0 {
		return
	}
	c.armMu.Lock()
	defer c.armMu.Unlock()
	if c.ctx.Err() == nil {
		_ = c.inner.SetDeadline(t)
	}
}

// opErr classifies an operation error: context cancellation wins, then a
// round timeout is labelled as such.
func (c *sessionConn) opErr(err error) error {
	if err == nil {
		return nil
	}
	if cerr := c.ctx.Err(); cerr != nil {
		return fmt.Errorf("abnn2: session aborted: %w", cerr)
	}
	if c.timeout > 0 && transport.IsTimeout(err) {
		return fmt.Errorf("abnn2: protocol round exceeded %v: %w", c.timeout, err)
	}
	return err
}

func (c *sessionConn) Send(msg []byte) error {
	// Arm before checking the context: if cancellation lands between the
	// check and the op, the watcher's immediate deadline overrides this
	// one — and any later arm by the other direction's goroutine — and
	// still aborts the op.
	c.arm()
	if cerr := c.ctx.Err(); cerr != nil {
		return fmt.Errorf("abnn2: session aborted: %w", cerr)
	}
	return c.opErr(c.inner.Send(msg))
}

func (c *sessionConn) Recv() ([]byte, error) {
	c.arm()
	if cerr := c.ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("abnn2: session aborted: %w", cerr)
	}
	msg, err := c.inner.Recv()
	return msg, c.opErr(err)
}

// recvIdle blocks for the next message with no round deadline: it is the
// between-batches wait of a server, where a client may legitimately sit
// idle indefinitely. Context cancellation still aborts it.
func (c *sessionConn) recvIdle() ([]byte, error) {
	c.setDeadline(time.Time{})
	// The context check must follow the disarm: if the watcher's abort
	// deadline raced with the disarm and lost, this check still observes
	// the cancelled context; if cancellation lands after the check, the
	// watcher re-arms an immediate deadline and aborts the Recv.
	if cerr := c.ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("abnn2: session aborted: %w", cerr)
	}
	msg, err := c.inner.Recv()
	return msg, c.opErr(err)
}

func (c *sessionConn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

func (c *sessionConn) Close() error {
	c.release()
	return c.inner.Close()
}
