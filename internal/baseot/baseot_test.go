package baseot

import (
	"bytes"
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// runOT executes a batch of base OTs over an in-memory pipe and returns
// the receiver's outputs.
func runOT(t *testing.T, pairs [][2]Msg, choices []byte) []Msg {
	t.Helper()
	return runPair(t, Send, Receive, pairs, choices, 100).out
}

func makePairs(n int) [][2]Msg {
	g := prg.New(prg.SeedFromInt(42))
	pairs := make([][2]Msg, n)
	for i := range pairs {
		copy(pairs[i][0][:], g.Bytes(MsgSize))
		copy(pairs[i][1][:], g.Bytes(MsgSize))
	}
	return pairs
}

func TestCorrectness(t *testing.T) {
	const n = 32
	pairs := makePairs(n)
	choices := make([]byte, n)
	for i := range choices {
		choices[i] = byte(i % 2)
	}
	got := runOT(t, pairs, choices)
	for i := range got {
		want := pairs[i][choices[i]]
		if got[i] != want {
			t.Errorf("OT %d: got %x want %x", i, got[i], want)
		}
		// Sanity: the other message must differ (they're random) and must
		// not equal the output.
		other := pairs[i][1-choices[i]]
		if got[i] == other {
			t.Errorf("OT %d: receiver output equals the unchosen message", i)
		}
	}
}

func TestAllZeroAndAllOneChoices(t *testing.T) {
	const n = 8
	pairs := makePairs(n)
	for _, bit := range []byte{0, 1} {
		choices := bytes.Repeat([]byte{bit}, n)
		got := runOT(t, pairs, choices)
		for i := range got {
			if got[i] != pairs[i][bit] {
				t.Errorf("bit=%d OT %d mismatch", bit, i)
			}
		}
	}
}

func TestSingleOT(t *testing.T) {
	pairs := makePairs(1)
	got := runOT(t, pairs, []byte{1})
	if got[0] != pairs[0][1] {
		t.Fatal("single OT mismatch")
	}
}

// The receiver's messages to the sender must not depend on the choice bits
// in any way the sender can detect without the discrete log; here we check
// the weaker but still meaningful property that transcripts for different
// choices have identical lengths and structure.
func TestTranscriptShapeIndependentOfChoice(t *testing.T) {
	lenFor := func(choice byte) (int, int) {
		a, b, m := transport.MeteredPipe()
		defer a.Close()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			Send(a, makePairs(4), prg.New(prg.SeedFromInt(1)))
		}()
		Receive(b, bytes.Repeat([]byte{choice}, 4), prg.New(prg.SeedFromInt(2)))
		wg.Wait()
		s := m.Snapshot()
		return int(s.BytesAB), int(s.BytesBA)
	}
	ab0, ba0 := lenFor(0)
	ab1, ba1 := lenFor(1)
	if ab0 != ab1 || ba0 != ba1 {
		t.Errorf("transcript shape depends on choice: (%d,%d) vs (%d,%d)", ab0, ba0, ab1, ba1)
	}
}

// A peer sending garbage instead of curve points must produce an error,
// not a panic (elliptic.Unmarshal returns nil on invalid input).
func TestRejectsMalformedPoints(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	done := make(chan error, 1)
	go func() {
		_, err := Receive(b, []byte{0}, prg.New(prg.SeedFromInt(1)))
		done <- err
	}()
	if err := a.Send([]byte{0x99, 0x01, 0x02}); err != nil { // not a valid point
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("receiver accepted malformed A point")
	}

	// And the sender side: garbage B points.
	a2, b2 := transport.Pipe()
	defer a2.Close()
	sendDone := make(chan error, 1)
	go func() {
		sendDone <- Send(a2, makePairs(1), prg.New(prg.SeedFromInt(2)))
	}()
	if _, err := b2.Recv(); err != nil { // consume the A point
		t.Fatal(err)
	}
	if err := b2.Send(make([]byte, 65)); err != nil { // wrong-content point
		t.Fatal(err)
	}
	if err := <-sendDone; err == nil {
		t.Fatal("sender accepted malformed B point")
	}
}

func TestFlightCount(t *testing.T) {
	a, b, m := transport.MeteredPipe()
	defer a.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Send(a, makePairs(2), prg.New(prg.SeedFromInt(1)))
	}()
	Receive(b, []byte{0, 1}, prg.New(prg.SeedFromInt(2)))
	wg.Wait()
	if f := m.Snapshot().Flights; f != 3 {
		t.Errorf("base OT used %d flights, want 3 (A, B, ciphertexts)", f)
	}
}
