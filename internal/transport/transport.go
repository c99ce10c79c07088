// Package transport provides the two-party communication substrate for all
// protocols in this repository: message-framed connections, byte/round
// metering, deadlines, fault injection, and analytic LAN/WAN network
// models.
//
// The paper evaluates on real links shaped with Linux traffic control; we
// instead measure the exact bytes and communication rounds of every
// protocol run and apply the published link parameters analytically (see
// DESIGN.md, "Substitutions"). A real TCP transport is also provided for
// the two-process demo binaries.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Conn is one endpoint of a two-party message channel. Send transfers one
// framed message to the peer; Recv blocks for the next message. A Conn is
// not safe for concurrent Sends or concurrent Recvs, but one goroutine may
// Send while another Recvs (full duplex).
//
// Send does not keep msg: when it returns, the bytes have been copied or
// written out and the caller may reuse the buffer (a wrapper that logs
// flights copies them). A message returned by Recv belongs to the caller.
//
// SetDeadline bounds all current and future Send/Recv calls: operations
// that have not completed by t fail with a timeout error (IsTimeout
// reports true). The zero time clears the deadline. SetDeadline may be
// called concurrently with blocked operations to abort them, which is how
// the session layer implements cancellation.
type Conn interface {
	Send(msg []byte) error
	Recv() ([]byte, error)
	SetDeadline(t time.Time) error
	Close() error
}

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ErrTimeout is returned by pipe connections when a deadline expires.
// Stream connections surface the underlying net.Conn timeout instead;
// use IsTimeout to classify both.
var ErrTimeout error = &timeoutError{}

type timeoutError struct{}

func (*timeoutError) Error() string   { return "transport: deadline exceeded" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// ErrDeadlineUnsupported is returned by SetDeadline on stream connections
// whose underlying ReadWriteCloser has no deadline mechanism (for example
// a bytes.Buffer). Callers that arm deadlines opportunistically should
// treat it as "no enforcement available", not as a failure.
var ErrDeadlineUnsupported = errors.New("transport: underlying stream does not support deadlines")

// IsTimeout reports whether err was caused by an expired deadline, either
// a pipe ErrTimeout or a net.Conn / os deadline error.
func IsTimeout(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrTimeout) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var t interface{ Timeout() bool }
	return errors.As(err, &t) && t.Timeout()
}

// deadline is a resettable cancellation signal driven by a wall-clock
// deadline, after net.pipeDeadline: wait() returns a channel that is
// closed once the currently-set deadline passes.
type deadline struct {
	mu     sync.Mutex
	timer  *time.Timer
	cancel chan struct{}
}

func makeDeadline() deadline { return deadline{cancel: make(chan struct{})} }

func isClosedChan(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// set arms the deadline at t; the zero time disarms it.
func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		<-d.cancel // the timer fired; wait for its close to complete
	}
	d.timer = nil
	closed := isClosedChan(d.cancel)
	if t.IsZero() {
		if closed {
			d.cancel = make(chan struct{})
		}
		return
	}
	if dur := time.Until(t); dur > 0 {
		if closed {
			d.cancel = make(chan struct{})
		}
		cancel := d.cancel
		d.timer = time.AfterFunc(dur, func() { close(cancel) })
		return
	}
	if !closed {
		close(d.cancel)
	}
}

// wait returns the channel closed when the armed deadline passes.
func (d *deadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancel
}

// pipeHalf is one endpoint of an in-memory duplex pipe.
type pipeHalf struct {
	out  chan<- []byte
	in   <-chan []byte
	done chan struct{}
	once *sync.Once
	peer *pipeHalf
	dl   deadline
}

// Pipe returns a connected pair of in-memory connections. Messages are
// copied on Send, so callers may reuse buffers.
func Pipe() (Conn, Conn) {
	ab := make(chan []byte, 1024)
	ba := make(chan []byte, 1024)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &pipeHalf{out: ab, in: ba, done: done, once: once, dl: makeDeadline()}
	b := &pipeHalf{out: ba, in: ab, done: done, once: once, dl: makeDeadline()}
	a.peer, b.peer = b, a
	return a, b
}

func (p *pipeHalf) Send(msg []byte) error {
	cp := make([]byte, len(msg))
	copy(cp, msg)
	select {
	case p.out <- cp:
		return nil
	case <-p.done:
		return ErrClosed
	case <-p.dl.wait():
		return ErrTimeout
	}
}

func (p *pipeHalf) Recv() ([]byte, error) {
	select {
	case msg := <-p.in:
		return msg, nil
	case <-p.done:
		// Drain any message that raced with Close so protocols that close
		// immediately after their final send still deliver it.
		select {
		case msg := <-p.in:
			return msg, nil
		default:
			return nil, ErrClosed
		}
	case <-p.dl.wait():
		return nil, ErrTimeout
	}
}

// SetDeadline bounds this endpoint's Send and Recv calls, including ones
// already blocked.
func (p *pipeHalf) SetDeadline(t time.Time) error {
	p.dl.set(t)
	return nil
}

func (p *pipeHalf) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

// streamConn frames messages over an io.ReadWriteCloser (e.g. a TCP
// connection) with a 4-byte little-endian length prefix.
type streamConn struct {
	rw     io.ReadWriteCloser
	limit  int
	sendMu sync.Mutex
	recvMu sync.Mutex
}

// MaxMessageSize is the default bound on a single framed message
// (64 MiB). Larger frames indicate a protocol bug or a hostile peer.
// NewStreamLimit raises or lowers the bound per connection.
const MaxMessageSize = 64 << 20

// NewStream wraps a byte stream (such as a *net.TCPConn) as a framed Conn
// with the default MaxMessageSize frame limit.
func NewStream(rw io.ReadWriteCloser) Conn { return NewStreamLimit(rw, 0) }

// NewStreamLimit is NewStream with an explicit per-message size limit,
// enforced symmetrically: Send refuses to emit a larger frame and Recv
// rejects a larger announced frame before allocating for it. limit <= 0
// selects the default MaxMessageSize. Both parties must agree on the
// limit (it is public protocol configuration, like the ring width).
func NewStreamLimit(rw io.ReadWriteCloser, limit int) Conn {
	if limit <= 0 {
		limit = MaxMessageSize
	}
	return &streamConn{rw: rw, limit: limit}
}

func (s *streamConn) Send(msg []byte) error {
	if len(msg) > s.limit {
		return fmt.Errorf("transport: message of %d bytes exceeds %d-byte limit", len(msg), s.limit)
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := s.rw.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: send header: %w", err)
	}
	if _, err := s.rw.Write(msg); err != nil {
		return fmt.Errorf("transport: send body: %w", err)
	}
	return nil
}

func (s *streamConn) Recv() ([]byte, error) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(s.rw, hdr[:]); err != nil {
		return nil, fmt.Errorf("transport: recv header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	// Reject before allocating: the 4-byte header alone must never let a
	// hostile peer provoke an arbitrary-size allocation.
	if int64(n) > int64(s.limit) {
		return nil, fmt.Errorf("transport: peer announced %d-byte message, exceeds %d-byte limit", n, s.limit)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(s.rw, msg); err != nil {
		return nil, fmt.Errorf("transport: recv body: %w", err)
	}
	return msg, nil
}

// SetDeadline delegates to the underlying stream when it has deadline
// support (net.Conn does); otherwise it reports ErrDeadlineUnsupported.
func (s *streamConn) SetDeadline(t time.Time) error {
	if d, ok := s.rw.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(t)
	}
	return ErrDeadlineUnsupported
}

func (s *streamConn) Close() error { return s.rw.Close() }
