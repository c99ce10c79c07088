package core

import (
	"bytes"
	"strings"
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
func fuzzServerTriplets(f testing.TB, p Params) (*ServerTriplets, transport.Conn) {
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
// and 0x80 fills (they set the bits above l, which the decoder masks and
// never rejects: TestPayloadHighBitsNeverAbort), both off-by-one
// neighbours, the empty payload and PRG output.
func addPayloadSeeds(f *testing.F, valid int) {
	for _, fill := range []byte{0, 0xFF, 0x80} {
		f.Add(bytes.Repeat([]byte{fill}, valid))
	}
	f.Add(make([]byte, valid-1))
	f.Add(make([]byte, valid+1))
	f.Add([]byte{})
	random := make([]byte, valid)
	prg.New(prg.SeedFromInt(uint64(valid))).Fill(random)
	f.Add(random)
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

// FuzzTripletPayloadMultiBatch is the same at o = 2: (N_f - 1) * o *
// elemBytes per OT, so (3+3) * 2 * 5 * 6 = 360 bytes for the same shape.
// Here the decoder reads o elements per OT as one span; their bits above
// the 33-bit ring's l are masked, never checked. 480 bytes, the packing
// that sent candidate 0's ciphertext too, is a seed of its own.
func FuzzTripletPayloadMultiBatch(f *testing.F) {
	p := Params{Ring: ring.New(33), Scheme: quant.NewBitScheme(true, 2, 2), Workers: 1}
	srv, peer := fuzzServerTriplets(f, p)
	sh := MatShape{M: 2, N: 3, O: 2}
	W := []int64{1, -2, 0, 3, -1, 2}
	addPayloadSeeds(f, 360)
	f.Add(make([]byte, 480))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := peer.Send(data); err != nil {
			t.Skip("pipe closed")
		}
		srv.GenerateServer(sh, W, MultiBatch)
	})
}

// TestOldMultiBatchPayloadRefused: a multi-batch payload packed the way
// wire version 4 packed it, all N ciphertexts per OT, fails the layer
// with the length error: no panic, and no U.
func TestOldMultiBatchPayloadRefused(t *testing.T) {
	p := Params{Ring: ring.New(33), Scheme: quant.NewBitScheme(true, 2, 2), Workers: 1}
	srv, peer := fuzzServerTriplets(t, p)
	defer peer.Close()
	if err := peer.Send(make([]byte, 480)); err != nil {
		t.Fatal(err)
	}
	U, err := srv.GenerateServer(MatShape{M: 2, N: 3, O: 2}, []int64{1, -2, 0, 3, -1, 2}, MultiBatch)
	if U != nil || err == nil || !strings.Contains(err.Error(), "payload is 480 bytes, want 360") {
		t.Fatalf("version-4 payload: U = %v, err = %v; want the length error and no U", U, err)
	}
}
