package core

import (
	"bytes"
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// fuzzServerTriplets builds a real ServerTriplets (base OTs against a
// throwaway client) and returns the peer conn for injecting payload
// flights. The drainer discards the server's outgoing u matrices.
func fuzzServerTriplets(f *testing.F, p Params) (*ServerTriplets, transport.Conn) {
	f.Helper()
	ca, cb := transport.Pipe()
	var (
		cerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, cerr = NewClientTriplets(cb, p, 7, prg.New(prg.SeedFromInt(1)))
	}()
	srv, serr := NewServerTripletsSeeded(ca, p, 7, prg.New(prg.SeedFromInt(2)))
	wg.Wait()
	if cerr != nil || serr != nil {
		f.Fatalf("setup: client=%v server=%v", cerr, serr)
	}
	go func() {
		for {
			if _, err := cb.Recv(); err != nil {
				return
			}
		}
	}()
	return srv, cb
}

// addPayloadSeeds seeds a payload parser at its valid length: zero, 0xFF
// and 0x80 fills (set high bits reach the ring canonicality check), both
// off-by-one neighbours and the empty payload.
func addPayloadSeeds(f *testing.F, valid int) {
	for _, fill := range []byte{0, 0xFF, 0x80} {
		f.Add(bytes.Repeat([]byte{fill}, valid))
	}
	f.Add(make([]byte, valid-1))
	f.Add(make([]byte, valid+1))
	f.Add([]byte{})
}

// FuzzTripletPayloadOneBatch feeds arbitrary bytes as the client's
// one-batch ciphertext payload. Shape 2x3 over the 4(2,2) scheme gives
// gamma*m*n = 12 OTs in a single chunk; the valid payload length is
// sum over OTs of (N_f - 1) * elemBytes = 12 * 3 * 5 = 180 bytes for
// the 33-bit ring. Anything else must error; a correctly-sized garbage
// payload must decode (to garbage shares) without panicking.
func FuzzTripletPayloadOneBatch(f *testing.F) {
	p := Params{Ring: ring.New(33), Scheme: quant.NewBitScheme(true, 2, 2), Workers: 1}
	srv, peer := fuzzServerTriplets(f, p)
	sh := MatShape{M: 2, N: 3, O: 1}
	W := []int64{1, -2, 0, 3, -1, 2}
	addPayloadSeeds(f, 180)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := peer.Send(data); err != nil {
			t.Skip("pipe closed")
		}
		srv.GenerateServer(sh, W, OneBatch)
	})
}

// FuzzTripletPayloadMultiBatch is the same for the multi-batch packing:
// N_f * o * elemBytes per OT, so (4+4) * 2 * 5 * 6 = 480 bytes for the
// same shape at o=2. The DecodeVec canonicality check (high pad bits of
// the 33-bit ring must be zero) is reachable only here.
func FuzzTripletPayloadMultiBatch(f *testing.F) {
	p := Params{Ring: ring.New(33), Scheme: quant.NewBitScheme(true, 2, 2), Workers: 1}
	srv, peer := fuzzServerTriplets(f, p)
	sh := MatShape{M: 2, N: 3, O: 2}
	W := []int64{1, -2, 0, 3, -1, 2}
	addPayloadSeeds(f, 480)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := peer.Send(data); err != nil {
			t.Skip("pipe closed")
		}
		srv.GenerateServer(sh, W, MultiBatch)
	})
}
