package abnn2

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"testing"

	"abnn2/internal/transport"
)

// releaseBound is the number of released frames Conn's doc comment lets a
// conn keep ("at most four").
const releaseBound = 4

// releaseCase is a receiving conn under test and the end that feeds it;
// raw is the feeding end's byte stream when the conn is stream-backed.
type releaseCase struct {
	send, recv Conn
	raw        net.Conn
}

func pipeCase() releaseCase {
	a, b := transport.Pipe()
	return releaseCase{send: a, recv: b}
}

func streamCase() releaseCase {
	a, b := net.Pipe()
	return releaseCase{send: Stream(a), recv: Stream(b), raw: a}
}

// TestConnRelease holds every conn a session receives through to
// Release's contract: a released frame carries a later one while a frame
// still held is never written; a frame far smaller than a released buffer
// does not take it; no more than releaseBound released frames are kept;
// and a short read returns no buffer at all.
func TestConnRelease(t *testing.T) {
	cases := []struct {
		name string
		open func() releaseCase
	}{
		{"pipe", pipeCase},
		{"stream", streamCase},
		{"meter", func() releaseCase {
			c := streamCase()
			c.recv, _ = transport.MeterEndpoint(c.recv)
			return c
		}},
		{"fault", func() releaseCase {
			c := pipeCase()
			c.recv = transport.Fault(c.recv, transport.FaultPlan{})
			return c
		}},
		{"session", func() releaseCase {
			c := streamCase()
			c.recv = newSessionConn(context.Background(), c.recv, 0, nil)
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.open()
			defer c.send.Close()
			defer c.recv.Close()
			const n = 1 << 12
			// exchange sends n bytes of fill — on a goroutine, since a
			// net.Pipe write waits for its read — and receives them.
			exchange := func(fill byte, n int) []byte {
				t.Helper()
				want := bytes.Repeat([]byte{fill}, n)
				errc := make(chan error, 1)
				go func() { errc <- c.send.Send(want) }()
				got, err := c.recv.Recv()
				if serr := <-errc; serr != nil || err != nil {
					t.Fatalf("send %v, recv %v", serr, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("received %d bytes that are not the %d sent", len(got), n)
				}
				return got
			}

			held, released := exchange(1, n), exchange(2, n)
			c.recv.Release(released)
			if got := exchange(3, n); &got[0] != &released[0] {
				t.Error("a released frame was not reused")
			}
			if !bytes.Equal(held, bytes.Repeat([]byte{1}, n)) {
				t.Error("a frame still held was overwritten")
			}

			big := exchange(4, n)
			c.recv.Release(big)
			if small := exchange(5, 16); cap(small) >= n {
				t.Errorf("a 16-byte frame took a released %d-byte buffer", cap(small))
			}

			// Release twice the bound, then receive as many: at most
			// releaseBound of them may come back.
			frames := make(map[*byte]bool)
			var kept [][]byte
			for i := 0; i < 2*releaseBound; i++ {
				kept = append(kept, exchange(byte(6+i), n))
			}
			for _, f := range kept {
				frames[&f[0]] = true
				c.recv.Release(f)
			}
			reused := 0
			for i := 0; i < 2*releaseBound; i++ {
				if got := exchange(0x40+byte(i), n); frames[&got[0]] {
					reused++
				}
			}
			if reused < 1 || reused > releaseBound {
				t.Errorf("%d of %d released frames were reused, want 1..%d", reused, 2*releaseBound, releaseBound)
			}

			if c.raw == nil {
				return
			}
			// A frame cut short after a release: Recv fails and hands
			// back neither the recycled buffer nor part of it.
			c.recv.Release(exchange(0x50, n))
			go func() {
				var hdr [4]byte
				binary.LittleEndian.PutUint32(hdr[:], n)
				c.raw.Write(hdr[:])
				c.raw.Write(bytes.Repeat([]byte{0x60}, n/2))
				c.raw.Close()
			}()
			if msg, err := c.recv.Recv(); err == nil || msg != nil {
				t.Errorf("short read returned %d bytes and error %v, want no bytes and an error", len(msg), err)
			}
		})
	}
}
