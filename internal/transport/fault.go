package transport

import (
	"sync"
	"time"
)

// Fault injection for chaos testing. A FaultConn wraps one endpoint of a
// connection and deterministically injects a single fault at the i-th
// outgoing message: an added delay, a truncated frame, corrupted bytes, a
// silently dropped message, or a hard disconnect. Everything is driven by
// the FaultPlan — no randomness outside the seeded corruption — so a
// failing chaos case replays exactly.

// FaultClass selects the kind of injected fault.
type FaultClass int

const (
	// FaultNone injects nothing; the wrapper only counts messages. Useful
	// for discovering how many messages a protocol sends.
	FaultNone FaultClass = iota
	// FaultDelay sleeps for Plan.Delay before sending the i-th message.
	FaultDelay
	// FaultTruncate sends only the first half of the i-th message (an
	// empty frame when the message is a single byte).
	FaultTruncate
	// FaultCorrupt flips seed-selected bits of the i-th message.
	FaultCorrupt
	// FaultDrop silently discards the i-th message and reports success.
	FaultDrop
	// FaultDisconnect closes the connection instead of sending the i-th
	// message.
	FaultDisconnect
)

// FaultClasses lists every injectable fault, for chaos-suite iteration.
var FaultClasses = []FaultClass{FaultDelay, FaultTruncate, FaultCorrupt, FaultDrop, FaultDisconnect}

func (c FaultClass) String() string {
	switch c {
	case FaultNone:
		return "none"
	case FaultDelay:
		return "delay"
	case FaultTruncate:
		return "truncate"
	case FaultCorrupt:
		return "corrupt"
	case FaultDrop:
		return "drop"
	case FaultDisconnect:
		return "disconnect"
	}
	return "unknown"
}

// FaultPlan describes one injected fault.
type FaultPlan struct {
	Class   FaultClass
	Message int           // 0-based index of the outgoing message to fault
	Seed    uint64        // selects the corrupted bits for FaultCorrupt
	Delay   time.Duration // sleep length for FaultDelay
}

// FaultConn wraps a Conn with a deterministic single-fault plan. It is
// safe for the full-duplex use pattern of Conn (one sender, one
// receiver).
type FaultConn struct {
	inner Conn
	plan  FaultPlan

	mu    sync.Mutex
	sends int
	fired bool
}

// Fault wraps conn with the given plan.
func Fault(conn Conn, plan FaultPlan) *FaultConn {
	return &FaultConn{inner: conn, plan: plan}
}

// Sends returns how many Send calls the wrapper has observed.
func (f *FaultConn) Sends() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sends
}

// Fired reports whether the planned fault has been injected, i.e. the
// protocol reached the faulted message index.
func (f *FaultConn) Fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

func (f *FaultConn) Send(msg []byte) error {
	f.mu.Lock()
	idx := f.sends
	f.sends++
	inject := f.plan.Class != FaultNone && idx == f.plan.Message
	if inject {
		f.fired = true
	}
	f.mu.Unlock()
	if !inject {
		return f.inner.Send(msg)
	}
	switch f.plan.Class {
	case FaultDelay:
		time.Sleep(f.plan.Delay)
		return f.inner.Send(msg)
	case FaultTruncate:
		return f.inner.Send(msg[:len(msg)/2])
	case FaultCorrupt:
		cp := make([]byte, len(msg))
		copy(cp, msg)
		corrupt(cp, f.plan.Seed)
		return f.inner.Send(cp)
	case FaultDrop:
		return nil // swallowed; the peer waits for a frame that never comes
	case FaultDisconnect:
		f.inner.Close()
		return ErrClosed
	}
	return f.inner.Send(msg)
}

func (f *FaultConn) Recv() ([]byte, error) { return f.inner.Recv() }

func (f *FaultConn) Release(msg []byte) { f.inner.Release(msg) }

func (f *FaultConn) SetDeadline(t time.Time) error { return f.inner.SetDeadline(t) }

func (f *FaultConn) Close() error { return f.inner.Close() }

// corrupt flips 1 + len(b)/64 seed-selected bits of b in place.
func corrupt(b []byte, seed uint64) {
	if len(b) == 0 {
		return
	}
	x := seed | 1
	for i := 0; i <= len(b)/64; i++ {
		// splitmix64 step: cheap, deterministic, and well-mixed.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		b[int(z%uint64(len(b)))] ^= 1 << (z >> 61)
	}
}
