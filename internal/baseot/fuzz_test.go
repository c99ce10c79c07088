package baseot

import (
	"crypto/elliptic"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// Both base-OT roles parse exactly the flights the other party sends:
// the receiver parses (A, ciphertexts), the sender parses the B-point
// batch. Each is stateless, so every fuzz iteration uses a fresh
// buffered pipe with the hostile flights pre-fed; the subject's own
// outgoing flights sit in the pipe buffer and are discarded with it.

// validPoint returns k times the generator: random 65-byte strings are
// almost never on the curve.
func validPoint(k byte) []byte {
	x, y := curve.ScalarBaseMult([]byte{k})
	return elliptic.Marshal(curve, x, y)
}

// FuzzReceive fuzzes the receiver's two inbound flights: the sender
// point A and the ciphertext batch (valid length n*2*MsgSize = 64 for
// n=2).
func FuzzReceive(f *testing.F) {
	g := validPoint(1)
	f.Add(g, make([]byte, 64))
	f.Add(g, make([]byte, 63))
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, 65), make([]byte, 64))
	f.Fuzz(func(t *testing.T, araw, cts []byte) {
		a, b := transport.Pipe()
		a.Send(araw)
		a.Send(cts)
		rng := prg.New(prg.SeedFromInt(7))
		Receive(b, []byte{0, 1}, rng)
	})
}

// FuzzSend fuzzes the sender's one inbound flight: the batch of receiver
// points B_i (valid length n*65 = 130 for n=2 over P-256). Off-curve and
// truncated points must be rejected without panicking.
func FuzzSend(f *testing.F) {
	g := validPoint(1)
	valid := append(append([]byte{}, g...), g...)
	f.Add(valid)
	f.Add(append(validPoint(1), validPoint(2)...))
	f.Add(append(validPoint(3), validPoint(4)...))
	f.Add(valid[:129])
	f.Add([]byte{})
	f.Add(make([]byte, 130))
	f.Fuzz(func(t *testing.T, braw []byte) {
		a, b := transport.Pipe()
		a.Send(braw)
		rng := prg.New(prg.SeedFromInt(8))
		var pairs [][2]Msg
		pairs = append(pairs, [2]Msg{{1}, {2}}, [2]Msg{{3}, {4}})
		Send(b, pairs, rng)
	})
}
