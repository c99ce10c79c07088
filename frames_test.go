package abnn2

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"abnn2/internal/bank"
)

// annBytes builds announcement bytes by hand: 4 batch bytes, a mode byte
// and a tail, so the tests do not lean on the codec they check.
func annBytes(batch uint32, mode byte, tail int) []byte {
	raw := []byte{byte(batch), byte(batch >> 8), byte(batch >> 16), byte(batch >> 24), mode}
	for i := 0; i < tail; i++ {
		raw = append(raw, byte(0xA0+i))
	}
	return raw
}

func TestParseAnnouncement(t *testing.T) {
	var peer bank.PeerID
	for i := range peer {
		peer[i] = byte(0xA8 + i)
	}
	const corr = 0xA7A6A5A4A3A2A1A0
	accepted := []struct {
		raw  []byte
		want announcement
	}{
		{annBytes(1, 0, 0), announcement{batch: 1}},
		{annBytes(32, 1, 0), announcement{batch: 32, argmax: true}},
		{annBytes(1<<20, 2, 8), announcement{batch: 1 << 20, plan: true, source: provisionLoopback, corr: corr, peer: bank.LoopbackClient}},
		{annBytes(7, 3, 24), announcement{batch: 7, argmax: true, plan: true, source: provisionPeer, corr: corr, peer: peer}},
		{annBytes(2, 4, 24), announcement{batch: 2, store: true, source: provisionPeer, corr: corr, peer: peer}},
		{annBytes(1<<20, 6, 24), announcement{batch: 1 << 20, plan: true, store: true, source: provisionPeer, corr: corr, peer: peer}},
	}
	for _, c := range accepted {
		got, err := parseAnnouncement(c.raw)
		if err != nil || got != c.want {
			t.Errorf("parse %x = %+v, %v; want %+v", c.raw, got, err, c.want)
		}
		if back := c.want.append(nil); !bytes.Equal(back, c.raw) {
			t.Errorf("append %+v = %x, want %x", c.want, back, c.raw)
		}
	}
	rejected := []struct {
		raw  []byte
		want string
	}{
		{nil, "malformed batch announcement"},
		{annBytes(1, 0, 0)[:4], "malformed batch announcement"},
		{annBytes(1, 0, 1), "malformed batch announcement"},
		{annBytes(1, 0, 7), "malformed batch announcement"},
		{annBytes(1, 0, 9), "malformed batch announcement"},
		{annBytes(1, 0, 25), "malformed batch announcement"},
		{annBytes(0, 0, 0), "batch size 0 out of range"},
		{annBytes(1<<20+1, 0, 8), "out of range"},
		{annBytes(1<<31, 0, 24), "out of range"},
		{annBytes(1, 4, 0), "malformed store announcement"},  // store, inline layout
		{annBytes(1, 6, 8), "malformed store announcement"},  // store, loopback layout
		{annBytes(1, 5, 24), "malformed store announcement"}, // store with argmax
		{annBytes(1, 7, 24), "malformed store announcement"},
		{annBytes(1, 8, 24), "unknown output mode 8"},
		{annBytes(1, 0xFF, 8), "unknown output mode 255"},
	}
	for _, c := range rejected {
		if _, err := parseAnnouncement(c.raw); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parse %x: error %v, want one mentioning %q", c.raw, err, c.want)
		}
	}
}

func TestParseOfflineFrame(t *testing.T) {
	id := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	const idVal = 0x0807060504030201
	frame := func(kind byte, tail ...byte) []byte {
		return append(append([]byte{kind}, id...), tail...)
	}
	accepted := []struct {
		raw  []byte
		want offlineFrame
	}{
		{frame('G'), offlineFrame{kind: offlineGo, id: idVal}},
		{frame('N'), offlineFrame{kind: offlineNak, id: idVal}},
		{frame('A'), offlineFrame{kind: offlineAck, id: idVal}},
	}
	for _, c := range accepted {
		got, err := parseOfflineFrame(c.raw)
		if err != nil || got != c.want {
			t.Errorf("parse %x = %+v, %v; want %+v", c.raw, got, err, c.want)
		}
		if back := c.want.append(nil); !bytes.Equal(back, c.raw) {
			t.Errorf("append %+v = %x, want %x", c.want, back, c.raw)
		}
	}
	rejected := [][]byte{
		nil,
		{'G'},
		frame('X'),
		frame('R'),             // the kinds a client once sent are not replies
		frame('R', 2, 0, 0, 0), // ... at their old lengths either
		{'D'},
		frame('G', 0),
		frame('A')[:8],
	}
	for _, raw := range rejected {
		if f, err := parseOfflineFrame(raw); err == nil {
			t.Errorf("parse %x accepted as %+v", raw, f)
		}
	}
}

func FuzzParseAnnouncement(f *testing.F) {
	// One valid frame per layout and mode bit, the store bit on its one
	// layout and on the two it is refused on, the batch and mode bounds,
	// then each length's fills and neighbours.
	for _, raw := range [][]byte{
		annBytes(2, 1, 0),       // inline, argmax
		annBytes(1, 2, 8),       // loopback, plan follows
		annBytes(1<<20, 3, 24),  // peer, both bits
		annBytes(4, 4, 24),      // store
		annBytes(4, 6, 24),      // store, plan follows
		annBytes(4, 5, 24),      // store with argmax
		annBytes(4, 4, 8),       // store on the loopback layout
		annBytes(4, 4, 0),       // store on the inline layout
		annBytes(1<<20+1, 0, 0), // batch over the bound
		annBytes(0, 0, 8),       // batch 0
		annBytes(1, 8, 0),       // first unknown mode bit
		{},
	} {
		f.Add(raw)
	}
	for _, n := range []int{5, 13, 29} {
		f.Add(bytes.Repeat([]byte{0xFF}, n))
		f.Add(bytes.Repeat([]byte{0x80}, n))
		f.Add(make([]byte, n-1))
		f.Add(make([]byte, n+1))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		a, err := parseAnnouncement(raw)
		if err != nil {
			return
		}
		n := len(raw)
		if n != 5 && n != 13 && n != 29 {
			t.Fatalf("accepted %d bytes", n)
		}
		if a.batch < 1 || a.batch > 1<<20 || raw[4] > 7 {
			t.Fatalf("accepted %x as %+v", raw, a)
		}
		if a.store && (n != 29 || a.argmax) {
			t.Fatalf("accepted a store announcement of %d bytes, argmax %v", n, a.argmax)
		}
		if back := a.append(nil); !bytes.Equal(back, raw) {
			t.Fatalf("parse then append: %x in, %x out", raw, back)
		}
	})
}

func FuzzParseOfflineFrame(f *testing.F) {
	// Each reply kind at its one length and that length's neighbours, then
	// what is no reply at all, the request a client once sent included.
	id := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, kind := range []byte{'G', 'N', 'A', 'X', 0} {
		frame := append([]byte{kind}, id...)
		f.Add(frame)
		f.Add(frame[:8])
		f.Add(append(frame, 0))
	}
	f.Add(append(append([]byte{'R'}, id...), 4, 0, 0, 0))
	f.Add([]byte{'D'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := parseOfflineFrame(raw)
		if err != nil {
			return
		}
		if len(raw) != 9 || (fr.kind != 'G' && fr.kind != 'N' && fr.kind != 'A') {
			t.Fatalf("accepted %x as %+v", raw, fr)
		}
		if back := fr.append(nil); !bytes.Equal(back, raw) {
			t.Fatalf("parse then append: %x in, %x out", raw, back)
		}
	})
}

// TestServerRejectsMalformedAnnouncement: whatever a set-up client sends
// in place of an announcement, HandleBatch answers with an ordinary
// error — not a contained panic — and does not wait for more.
func TestServerRejectsMalformedAnnouncement(t *testing.T) {
	qm := chaosModel(t)
	for _, raw := range [][]byte{
		{},
		annBytes(1, 0, 0)[:4],
		annBytes(1, 0, 3),
		annBytes(1, 0, 30),
		annBytes(0, 0, 0),
		annBytes(1<<20+1, 1, 8),
		annBytes(1, 4, 0),
		annBytes(2, 5, 24),
		annBytes(2, 0x80, 24),
	} {
		sconn, cconn := Pipe()
		got := make(chan error, 1)
		go func() {
			srv, err := NewServer(sconn, qm, Config{RingBits: 32, RoundTimeout: chaosRoundTimeout})
			if err != nil {
				got <- err
				return
			}
			defer srv.Close()
			got <- srv.HandleBatch()
		}()
		cl, err := Dial(cconn, qm.Arch(), Config{RingBits: 32, RoundTimeout: chaosRoundTimeout})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if err := cl.sc.Send(raw); err != nil {
			t.Fatalf("send %x: %v", raw, err)
		}
		select {
		case err := <-got:
			var pe *PanicError
			if err == nil || errors.As(err, &pe) {
				t.Errorf("announcement %x: server returned %v, want an ordinary error", raw, err)
			}
		case <-time.After(chaosWatchdog):
			t.Fatalf("announcement %x: server hung", raw)
		}
		cl.Close()
	}
}
