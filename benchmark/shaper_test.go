package main

import (
	"io"
	"math"
	"testing"
	"time"
)

func TestParseLink(t *testing.T) {
	l, err := parseLink("9:72")
	if err != nil || l.BytesPerSec != 9e6 || l.RTT != 72*time.Millisecond {
		t.Fatalf("parseLink(9:72) = %+v, %v", l, err)
	}
	for _, bad := range []string{"", "9", "0:40", "x:40", "9:-1"} {
		if _, err := parseLink(bad); err == nil {
			t.Errorf("parseLink(%q) accepted", bad)
		}
	}
}

// A 1 MiB ping-pong over the default link takes two serialisations and
// two one-way delays; the shaper must land within 5 % of that.
func TestShaperPingPong(t *testing.T) {
	sh := newShaper(wanLink)
	ln, server, client, err := loopbackPair(sh)
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer ln.Close()
	defer client.Close()
	const size = 1 << 20
	echoed := make(chan error, 1)
	go func() {
		defer server.Close()
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(server, buf); err != nil {
				echoed <- nil
				return
			}
			if _, err := server.Write(buf); err != nil {
				echoed <- err
				return
			}
		}
	}()
	buf := make([]byte, size)
	pingPong := func() time.Duration {
		t0 := time.Now()
		if _, err := client.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, buf); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	unshaped := pingPong()
	sh.enable(true)
	want := 2 * (time.Duration(size/wanLink.BytesPerSec*float64(time.Second)) + wanLink.RTT/2)
	var best time.Duration
	for i := 0; i < 3; i++ { // a loaded machine can only be late
		if d := pingPong(); best == 0 || d < best {
			best = d
		}
	}
	if off := math.Abs(float64(best-want)) / float64(want); off > 0.05 {
		t.Errorf("shaped 1 MiB ping-pong took %v, analytic %v (%.1f%% off; unshaped %v)", best, want, 100*off, unshaped)
	}
	if unshaped > want/4 {
		t.Logf("unshaped ping-pong already took %v", unshaped)
	}
	client.Close()
	if err := <-echoed; err != nil {
		t.Fatal(err)
	}
}
