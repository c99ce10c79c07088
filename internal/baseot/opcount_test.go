package baseot

import (
	"crypto/elliptic"
	"errors"
	"math/big"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abnn2/internal/leakcheck"
	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// countingCurve counts the group operations made through the package's
// curve. The reference implementation keeps its own curve, so with a
// reference peer the counts are one party's alone.
type countingCurve struct {
	elliptic.Curve
	mult, baseMult, add atomic.Int64
	// reached is closed when mult reaches target (0: never).
	target  int64
	reached chan struct{}
}

func (c *countingCurve) ScalarMult(x, y *big.Int, k []byte) (*big.Int, *big.Int) {
	if c.mult.Add(1) == c.target {
		close(c.reached)
	}
	return c.Curve.ScalarMult(x, y, k)
}

func (c *countingCurve) ScalarBaseMult(k []byte) (*big.Int, *big.Int) {
	c.baseMult.Add(1)
	return c.Curve.ScalarBaseMult(k)
}

func (c *countingCurve) Add(x1, y1, x2, y2 *big.Int) (*big.Int, *big.Int) {
	c.add.Add(1)
	return c.Curve.Add(x1, y1, x2, y2)
}

// countOps routes the package's group operations through a fresh counter
// until the test ends.
func countOps(t *testing.T, target int) *countingCurve {
	c := &countingCurve{Curve: curve, target: int64(target), reached: make(chan struct{})}
	old := curve
	curve = c
	t.Cleanup(func() { curve = old })
	return c
}

// TestOperationCounts is the count the set-up timing rests on: a batch
// of n costs the sender n+1 variable-point multiplications (2n before
// a*(B_i - A) became a*B_i - a*A) and the receiver n.
func TestOperationCounts(t *testing.T) {
	for _, n := range []int{256, 128} {
		pairs := makePairs(n)
		choices := choicePatterns(n, 1)["random"]
		ones := 0
		for _, c := range choices {
			ones += int(c)
		}

		c := countOps(t, 0)
		runPair(t, Send, referenceReceive, pairs, choices, 1)
		if m, b, a := c.mult.Load(), c.baseMult.Load(), c.add.Load(); m != int64(n+1) || b != 1 || a != int64(n) {
			t.Errorf("n=%d sender: %d ScalarMult, %d ScalarBaseMult, %d Add; want %d, 1, %d", n, m, b, a, n+1, n)
		}

		c = countOps(t, 0)
		runPair(t, referenceSend, Receive, pairs, choices, 1)
		if m, b, a := c.mult.Load(), c.baseMult.Load(), c.add.Load(); m != int64(n) || b != int64(n) || a != int64(ones) {
			t.Errorf("n=%d receiver: %d ScalarMult, %d ScalarBaseMult, %d Add; want %d, %d, %d (the choice-1 OTs)", n, m, b, a, n, n, ones)
		}
	}
}

// gatedConn holds its party's second flight back until gate is closed.
type gatedConn struct {
	transport.Conn
	sends int
	gate  chan struct{}
}

func (g *gatedConn) Send(msg []byte) error {
	if g.sends++; g.sends == 2 {
		<-g.gate
	}
	return g.Conn.Send(msg)
}

// TestReceiverDerivesBeforeRecv: the receiver's n multiplications need
// nothing from the ciphertext flight, so they are done while it is still
// withheld, beside the sender's and not after them.
func TestReceiverDerivesBeforeRecv(t *testing.T) {
	const n = 16
	pairs := makePairs(n)
	choices := choicePatterns(n, 3)["random"]
	c := countOps(t, n)
	a, b := transport.Pipe()
	defer a.Close()
	gated := &gatedConn{Conn: a, gate: make(chan struct{})}
	release := sync.OnceFunc(func() { close(gated.gate) })
	defer release() // a failed wait must not leave the sender parked on the gate
	sendErr := make(chan error, 1)
	go func() { sendErr <- referenceSend(gated, pairs, prg.New(prg.SeedFromInt(6))) }()
	type result struct {
		out []Msg
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := Receive(b, choices, prg.New(prg.SeedFromInt(7)))
		done <- result{out, err}
	}()
	select {
	case <-c.reached:
	case r := <-done:
		t.Fatalf("receiver returned (%v) with the ciphertext flight withheld", r.err)
	case <-time.After(30 * time.Second):
		t.Fatalf("receiver made %d of its %d multiplications before blocking on the ciphertext flight", c.mult.Load(), n)
	}
	release()
	r := <-done
	if err := <-sendErr; err != nil || r.err != nil {
		t.Fatalf("sender: %v, receiver: %v", err, r.err)
	}
	for i, ch := range choices {
		if r.out[i] != pairs[i][ch] {
			t.Errorf("OT %d delivered the wrong message", i)
		}
	}
	if m := c.mult.Load(); m != n {
		t.Errorf("receiver made %d multiplications, want %d, all before the ciphertext flight", m, n)
	}
}

// TestDisconnectAtEachFlight: whichever of the three flights the
// connection dies at, both parties return, each with the error that
// names the step it was in, and nothing is left running.
func TestDisconnectAtEachFlight(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		flight            string
		receiverSends     bool // which party's Send the fault sits on
		message           int  // that party's 0-based outgoing message
		senderErr, rcvErr string
	}{
		{"A", false, 0, "baseot: send A", "baseot: recv A"},
		{"B", true, 0, "baseot: recv B", "baseot: send B"},
		{"ciphertexts", false, 1, "baseot: send ciphertexts", "baseot: recv ciphertexts"},
	} {
		base := leakcheck.Base()
		a, b := transport.Pipe()
		var sc, rc transport.Conn = a, b
		plan := transport.FaultPlan{Class: transport.FaultDisconnect, Message: tc.message}
		if tc.receiverSends {
			rc = transport.Fault(b, plan)
		} else {
			sc = transport.Fault(a, plan)
		}
		sendErr := make(chan error, 1)
		go func() { sendErr <- Send(sc, makePairs(n), prg.New(prg.SeedFromInt(1))) }()
		_, rerr := Receive(rc, make([]byte, n), prg.New(prg.SeedFromInt(2)))
		serr := <-sendErr
		for _, e := range []struct {
			party string
			err   error
			want  string
		}{{"sender", serr, tc.senderErr}, {"receiver", rerr, tc.rcvErr}} {
			if e.err == nil || !strings.HasPrefix(e.err.Error(), e.want+": ") || !errors.Is(e.err, transport.ErrClosed) {
				t.Errorf("disconnect at flight %s: %s error %v, want %q wrapping ErrClosed", tc.flight, e.party, e.err, e.want)
			}
		}
		leakcheck.Settle(t, base, "disconnect at flight "+tc.flight)
	}
}
