package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stats aggregates the communication profile of a protocol execution as
// one endpoint saw it: bytes in each direction, message count, and the
// number of one-way flights (direction flips), which is what latency
// multiplies in a WAN. Party A is the metered endpoint itself (the first
// conn of MeteredPipe), so BytesAB is what it sent and BytesBA what it
// received; only completed operations count.
//
// Flights are counted in the order the metered party performed its sends
// and receives. For a party that is one sequential loop — the client —
// that order is fixed by the protocol, so the count is the same every run
// even where the peer sends ahead of what it is owed, and it is the number
// to compare across runs or to price with a NetModel.
type Stats struct {
	BytesAB  int64 // bytes sent by party A, the metered endpoint
	BytesBA  int64 // bytes sent by party B
	Messages int64 // framed messages in both directions
	Flights  int64 // direction changes; a request/response exchange is 2
}

// TotalBytes returns the sum of both directions.
func (s Stats) TotalBytes() int64 { return s.BytesAB + s.BytesBA }

// Sub returns the difference s - prev, for per-phase accounting.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		BytesAB:  s.BytesAB - prev.BytesAB,
		BytesBA:  s.BytesBA - prev.BytesBA,
		Messages: s.Messages - prev.Messages,
		Flights:  s.Flights - prev.Flights,
	}
}

// Add returns s + other.
func (s Stats) Add(other Stats) Stats {
	return Stats{
		BytesAB:  s.BytesAB + other.BytesAB,
		BytesBA:  s.BytesBA + other.BytesBA,
		Messages: s.Messages + other.Messages,
		Flights:  s.Flights + other.Flights,
	}
}

// Meter collects one endpoint's Stats. Safe for concurrent use.
type Meter struct {
	mu         sync.Mutex
	stats      Stats
	lastSender int // 0 none yet, 1 = A, 2 = B
}

// Snapshot returns the current totals.
func (m *Meter) Snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Reset zeroes the counters (the direction tracker too).
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = Stats{}
	m.lastSender = 0
}

func (m *Meter) record(sender int, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sender == 1 {
		m.stats.BytesAB += int64(n)
	} else {
		m.stats.BytesBA += int64(n)
	}
	m.stats.Messages++
	if m.lastSender != sender {
		m.stats.Flights++
		m.lastSender = sender
	}
}

// MeteredPipe returns an in-memory connected pair whose first connection
// is metered as by MeterEndpoint: the returned Meter is that party's view.
func MeteredPipe() (Conn, Conn, *Meter) {
	a, b := Pipe()
	ma, m := MeterEndpoint(a)
	return ma, b, m
}

// FlightFunc observes one successfully framed message crossing an
// observed endpoint: the direction ("send" or "recv"), the 1-based
// per-direction sequence number, the framed payload size, and the time
// the transport completed the operation. Implementations must be safe
// for concurrent calls and must not block: they run on the wire path.
type FlightFunc func(dir string, seq int64, n int, at time.Time)

// endpointConn meters a single endpoint in both directions: its sends
// are recorded as party A, its receives as party B. An optional
// FlightFunc additionally stamps every message with a per-direction
// ordinal and a timestamp.
type endpointConn struct {
	Conn
	meter   *Meter
	obs     FlightFunc
	sendSeq atomic.Int64
	recvSeq atomic.Int64
}

func (c *endpointConn) Send(msg []byte) error {
	if err := c.Conn.Send(msg); err != nil {
		return err
	}
	c.meter.record(1, len(msg))
	if c.obs != nil {
		c.obs("send", c.sendSeq.Add(1), len(msg), time.Now())
	}
	return nil
}

func (c *endpointConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	c.meter.record(2, len(msg))
	if c.obs != nil {
		c.obs("recv", c.recvSeq.Add(1), len(msg), time.Now())
	}
	return msg, nil
}

// MeterEndpoint wraps one endpoint of any connection — a TCP stream, a
// pipe half, a fault wrapper — so that the returned Meter observes both
// directions from this side alone, with no cooperation from the peer:
// in the returned Stats, BytesAB is what this endpoint sent and BytesBA
// what it received. Only successfully transferred messages are counted.
func MeterEndpoint(c Conn) (Conn, *Meter) {
	return MeterEndpointObserved(c, nil)
}

// MeterEndpointObserved is MeterEndpoint with a flight observer: obs
// (when non-nil) is called once per successfully transferred message
// with its direction, per-direction ordinal, size, and completion time.
// Because the transport is ordered and lossless, the i-th "send" at one
// endpoint is the i-th "recv" at its peer, which lets an offline merge
// pair the two parties' stamps without any wire-format change.
func MeterEndpointObserved(c Conn, obs FlightFunc) (Conn, *Meter) {
	m := &Meter{}
	return &endpointConn{Conn: c, meter: m, obs: obs}, m
}
