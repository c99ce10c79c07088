package abnn2

import (
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"abnn2/internal/transport"
)

// End-to-end over real TCP, exercising the same flow as the
// abnn2-server / abnn2-client binaries: arch handshake, then secure
// classification. DialTCP's capped backoff absorbs the first-connect
// flakiness of freshly bound listeners on loaded CI machines.
func TestSecureInferenceOverTCP(t *testing.T) {
	qm, test := trainSmall(t, "4(2,2)")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer ln.Close()
	archJSON, err := json.Marshal(qm.Arch())
	if err != nil {
		t.Fatal(err)
	}
	srvErr := make(chan error, 1)
	go func() {
		tcp, err := ln.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer tcp.Close()
		conn := Stream(tcp)
		if err := conn.Send(archJSON); err != nil {
			srvErr <- err
			return
		}
		_, err = Serve(conn, qm, Config{RingBits: 64, RoundTimeout: time.Minute})
		srvErr <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := DialTCP(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var arch Arch
	if err := json.Unmarshal(raw, &arch); err != nil {
		t.Fatal(err)
	}
	if arch.SchemeName != "4(2,2)" {
		t.Fatalf("arch scheme = %q", arch.SchemeName)
	}
	client, err := Dial(conn, arch, Config{RingBits: 64, RoundTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	inputs := test.Inputs[:2]
	got, err := client.Classify(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for k, x := range inputs {
		if want := qm.Predict(x); got[k] != want {
			t.Errorf("input %d: secure %d, plaintext %d", k, got[k], want)
		}
	}
	client.Close()
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// DialTCP must keep retrying until a listener appears.
func TestDialTCPRetriesUntilListenerAppears(t *testing.T) {
	// Reserve an address, then release it so the first dial attempts fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	accepted := make(chan struct{})
	go func() {
		time.Sleep(200 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial below will fail the test
		}
		defer ln2.Close()
		c, err := ln2.Accept()
		if err == nil {
			c.Close()
		}
		close(accepted)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := DialTCP(ctx, addr)
	if err != nil {
		t.Fatalf("DialTCP did not survive late-bound listener: %v", err)
	}
	conn.Close()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("listener never accepted")
	}
}

// A cancelled context must stop the retry loop promptly with an error
// that carries both the cause and the last attempt's failure.
func TestDialTCPHonorsContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := DialTCP(ctx, addr); err == nil {
		t.Fatal("DialTCP succeeded against a dead address")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("DialTCP took %v after context expiry", d)
	}
}

// TestJitterBackoffRange: every wait of DialTCP's backoff schedule (50ms
// doubling to the 2s cap) is jittered over [d/2, 3d/2) with a real
// spread, so clients redialing a restarted server do not retry in step.
func TestJitterBackoffRange(t *testing.T) {
	if got := transport.Jitter(0); got != 0 {
		t.Fatalf("Jitter(0) = %v", got)
	}
	for d := dialInitialBackoff; ; d *= 2 {
		d = min(d, dialMaxBackoff)
		lo, hi := d, d
		for i := 0; i < 2000; i++ {
			j := transport.Jitter(d)
			if j < d/2 || j >= d+d/2 {
				t.Fatalf("Jitter(%v) = %v outside [%v, %v)", d, j, d/2, d+d/2)
			}
			if j < lo {
				lo = j
			}
			if j > hi {
				hi = j
			}
		}
		// 2000 draws must spread well past the quartiles; a constant (no
		// jitter) or a one-sided bug would trip one of these.
		if lo > d*3/4 || hi < d*5/4 {
			t.Errorf("Jitter(%v) spread [%v, %v] suspiciously narrow", d, lo, hi)
		}
		if d == dialMaxBackoff {
			break
		}
	}
}
