package main

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// link is one direction's shape: serialisation at BytesPerSec, then a
// fixed one-way delay of RTT/2.
type link struct {
	BytesPerSec float64
	RTT         time.Duration
}

// wanLink is the Tables 4-5 setting of the paper (the link QUOTIENT
// reports): 24.3 MB/s and 40 ms round trip.
var wanLink = link{BytesPerSec: 24.3e6, RTT: 40 * time.Millisecond}

func (l link) String() string {
	return fmt.Sprintf("%g MB/s + %g ms RTT (shaped loopback, not a real link)",
		l.BytesPerSec/1e6, float64(l.RTT)/float64(time.Millisecond))
}

// parseLink reads the -link flag, "MBps:RTTms".
func parseLink(s string) (link, error) {
	mb, ms, ok := strings.Cut(s, ":")
	if !ok {
		return link{}, fmt.Errorf("link %q: want MBps:RTTms", s)
	}
	bw, err := strconv.ParseFloat(mb, 64)
	if err != nil || bw <= 0 {
		return link{}, fmt.Errorf("link %q: bad bandwidth", s)
	}
	rtt, err := strconv.ParseFloat(ms, 64)
	if err != nil || rtt < 0 {
		return link{}, fmt.Errorf("link %q: bad round-trip time", s)
	}
	return link{BytesPerSec: bw * 1e6, RTT: time.Duration(rtt * float64(time.Millisecond))}, nil
}

// shaper shapes both directions of the connections it wraps. It starts
// switched off, so a workload can warm up at loopback speed and then
// turn the link on.
type shaper struct {
	link link
	on   atomic.Bool
}

func newShaper(l link) *shaper { return &shaper{link: l} }

// enable switches shaping on or off for every wrapped connection.
func (s *shaper) enable(on bool) { s.on.Store(on) }

// segmentBytes bounds one queued piece of a write, so a large frame
// reaches the reader as it is serialised and not in one lump.
const segmentBytes = 64 << 10

// minSleep is the shortest wait worth a timer: shorter serialisation
// times are carried forward in busyUntil and slept off together.
const minSleep = 100 * time.Microsecond

type segment struct {
	data []byte
	at   time.Time // when the peer may see it
}

// shapedConn is a delay line in front of a net.Conn's write side. A write
// blocks for its serialisation time only; a goroutine hands each segment
// to the real connection once its one-way delay has passed. Reads pass
// through, so wrapping both ends shapes both directions.
type shapedConn struct {
	net.Conn
	sh *shaper

	mu        sync.Mutex // serialises writers and guards the fields below
	busyUntil time.Time  // when the link finishes serialising what was written
	closed    bool
	queue     chan segment
	done      chan struct{} // closed when the delivery goroutine has exited
	werr      atomic.Pointer[error]
}

func (s *shaper) wrap(c net.Conn) net.Conn {
	sc := &shapedConn{
		Conn: c,
		sh:   s,
		// A paced writer keeps at most bandwidth x delay in flight (8
		// segments on the default link); the rest of the room is for
		// bursts of 4-byte frame headers, which serialise in no time.
		queue: make(chan segment, 1024),
		done:  make(chan struct{}),
	}
	go sc.deliver()
	return sc
}

func (c *shapedConn) deliver() {
	defer close(c.done)
	for seg := range c.queue {
		if c.werr.Load() != nil {
			continue // drain after a failed write so writers never block
		}
		if d := time.Until(seg.at); d > 0 {
			time.Sleep(d)
		}
		if _, err := c.Conn.Write(seg.data); err != nil {
			c.werr.Store(&err)
		}
	}
}

func (c *shapedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	written := 0
	// The schedule of the whole write is laid out from its start, so a
	// sleep that overshoots delays the next segment's sleep target by
	// nothing: only an idle link resets the clock.
	if now := time.Now(); c.busyUntil.Before(now) {
		c.busyUntil = now
	}
	for len(p) > 0 {
		if c.closed {
			return written, net.ErrClosed
		}
		if e := c.werr.Load(); e != nil {
			return written, *e
		}
		n := len(p)
		if n > segmentBytes {
			n = segmentBytes
		}
		seg := segment{data: append([]byte(nil), p[:n]...), at: time.Now()}
		if c.sh.on.Load() {
			c.busyUntil = c.busyUntil.Add(time.Duration(float64(n) / c.sh.link.BytesPerSec * float64(time.Second)))
			if d := time.Until(c.busyUntil); d > minSleep {
				time.Sleep(d)
			}
			seg.at = c.busyUntil.Add(c.sh.link.RTT / 2)
		}
		c.queue <- seg
		written += n
		p = p[n:]
	}
	return written, nil
}

// Close lets what is already on the link arrive, then closes the real
// connection.
func (c *shapedConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.queue)
	c.mu.Unlock()
	<-c.done
	return c.Conn.Close()
}
