package otext

import (
	"bytes"
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// Wire-parser fuzzing: every flight a party receives during OT extension
// is attacker-controlled bytes until proven otherwise. The targets below
// run the real stateful protocol objects (base OTs done once per
// process) and inject the fuzzer's bytes as the peer's flight; any input
// may produce an error, none may panic or hang.

// fuzzSender builds a real Sender whose peer end is returned for flight
// injection. The throwaway Receiver exists only to run the base OTs.
func fuzzSender(f *testing.F, code Code) (*Sender, transport.Conn) {
	f.Helper()
	a, b := transport.Pipe()
	var (
		snd  *Sender
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		snd, serr = NewSender(a, code, 7, prg.New(prg.SeedFromInt(1)))
	}()
	_, rerr := NewReceiver(b, code, 7, prg.New(prg.SeedFromInt(2)))
	wg.Wait()
	if serr != nil || rerr != nil {
		f.Fatalf("setup: sender=%v receiver=%v", serr, rerr)
	}
	return snd, b
}

// fuzzReceiver mirrors fuzzSender for the receiving role. A drainer
// goroutine discards the receiver's outgoing flights (u matrices) so the
// pipe buffer never fills across fuzz iterations.
func fuzzReceiver(f *testing.F, code Code) (*Receiver, transport.Conn) {
	f.Helper()
	a, b := transport.Pipe()
	var (
		rcv  *Receiver
		rerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rcv, rerr = NewReceiver(a, code, 7, prg.New(prg.SeedFromInt(3)))
	}()
	_, serr := NewSender(b, code, 7, prg.New(prg.SeedFromInt(4)))
	wg.Wait()
	if serr != nil || rerr != nil {
		f.Fatalf("setup: sender=%v receiver=%v", serr, rerr)
	}
	go func() {
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
	}()
	return rcv, b
}

// addFlightSeeds seeds a flight parser at its valid length: zero, 0xFF
// and 0x80 fills (set high bits reach the ring canonicality checks),
// both off-by-one neighbours and the empty flight.
func addFlightSeeds(f *testing.F, valid int) {
	for _, fill := range []byte{0, 0xFF, 0x80} {
		f.Add(bytes.Repeat([]byte{fill}, valid))
	}
	f.Add(make([]byte, valid-1))
	f.Add(make([]byte, valid+1))
	f.Add([]byte{})
}

// FuzzSenderExtend feeds arbitrary bytes as the u column matrix. The
// valid length for WH(16) and m=8 is 240 bytes (w = 240 columns of
// mPad/8 bytes); everything else must error cleanly.
func FuzzSenderExtend(f *testing.F) {
	snd, peer := fuzzSender(f, WalshHadamardCode(16))
	addFlightSeeds(f, 240)
	f.Add(make([]byte, 1024))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := peer.Send(data); err != nil {
			t.Skip("pipe closed")
		}
		// Error or success are both fine; panics and hangs are not.
		snd.Extend(8)
	})
}

// FuzzRecvChosen feeds arbitrary bytes as the ciphertext flight of a
// 1-of-4 chosen-message round (valid length 4*4*4 = 64).
func FuzzRecvChosen(f *testing.F) {
	rcv, peer := fuzzReceiver(f, WalshHadamardCode(4))
	choices := []int{0, 1, 2, 3}
	addFlightSeeds(f, 64)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := peer.Send(data); err != nil {
			t.Skip("pipe closed")
		}
		rcv.RecvChosen(choices, 4)
	})
}

// FuzzRecvCorrelatedRing feeds arbitrary bytes as the COT correction
// flight over the 33-bit ring (5-byte elements; valid length 3*5 = 15).
// The odd ring width exercises DecodeElem's partial-element handling.
func FuzzRecvCorrelatedRing(f *testing.F) {
	rcv, peer := fuzzReceiver(f, RepetitionCode())
	rg := ring.New(33)
	bits := []byte{1, 0, 1}
	addFlightSeeds(f, 15)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := peer.Send(data); err != nil {
			t.Skip("pipe closed")
		}
		rcv.RecvCorrelatedRing(rg, bits)
	})
}
