package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// memStream is an in-memory ReadWriteCloser fed with arbitrary bytes, to
// fuzz the frame decoder against hostile input.
type memStream struct {
	r *bytes.Reader
}

func (m *memStream) Read(p []byte) (int, error)  { return m.r.Read(p) }
func (m *memStream) Write(p []byte) (int, error) { return len(p), nil }
func (m *memStream) Close() error                { return nil }

// FuzzStreamRecv: arbitrary byte streams must never panic the framed
// receiver, never yield a message larger than the limit, and — with each
// message released before the next receive — always yield exactly the
// frame's bytes, in a recycled buffer or a new one, and no buffer at all
// when the stream ends mid-frame.
func FuzzStreamRecv(f *testing.F) {
	// A valid frame, a truncated frame, an oversize announcement.
	f.Add([]byte{3, 0, 0, 0, 'a', 'b', 'c'})
	f.Add([]byte{3, 0, 0, 0, 'a'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	// A frame, a shorter one that reuses its buffer, then a cut one.
	f.Add([]byte{3, 0, 0, 0, 'a', 'b', 'c', 2, 0, 0, 0, 'd', 'e', 3, 0, 0, 0, 'f'})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewStream(&memStream{r: bytes.NewReader(data)})
		rest := data
		for i := 0; i < 4; i++ {
			msg, err := c.Recv()
			if err != nil {
				if msg != nil {
					t.Fatalf("failed receive returned %d bytes", len(msg))
				}
				return // any error is acceptable; panics are not
			}
			if len(msg) > MaxMessageSize {
				t.Fatalf("message of %d bytes exceeds limit", len(msg))
			}
			if want := rest[4 : 4+len(msg)]; !bytes.Equal(msg, want) || int(binary.LittleEndian.Uint32(rest)) != len(msg) {
				t.Fatalf("message %d is %x, want the frame's %x", i, msg, want)
			}
			rest = rest[4+len(msg):]
			c.Release(msg)
		}
	})
}

// Round trip: every message written by Send must be recovered by Recv.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add([]byte("hello"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 1<<16 {
			return
		}
		var buf bytes.Buffer
		w := NewStream(&bufStream{w: &buf})
		if err := w.Send(payload); err != nil {
			t.Fatalf("send: %v", err)
		}
		r := NewStream(&memStream{r: bytes.NewReader(buf.Bytes())})
		got, err := r.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("roundtrip mismatch")
		}
	})
}

type bufStream struct{ w io.Writer }

func (b *bufStream) Read(p []byte) (int, error)  { return 0, io.EOF }
func (b *bufStream) Write(p []byte) (int, error) { return b.w.Write(p) }
func (b *bufStream) Close() error                { return nil }
