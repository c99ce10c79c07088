package bank

import (
	"os"
	"sync"
	"testing"

	"abnn2/internal/core"
	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// TestStoredHalvesOutliveWireV4: a half pair generated under wire version
// 4, whose multi-batch layers also sent candidate 0's ciphertext, still
// serves after the packing changed, since a half holds results (U, V, R0,
// Z1), not flights, and the blob codec is the same. The pair in testdata
// is testModel's, 4(2,2) over l = 32 at batch 2, from the loopback
// generator (newSessionGen, seed 1); installed in a server and a client
// engine over a pipe, it must predict what ForwardRing computes.
func TestStoredHalvesOutliveWireV4(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sc, err := DecodeServerCorr(read("v4-server-half-b2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := DecodeClientCorr(read("v4-client-half-b2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	qm := testModel(t)
	p := core.Params{Ring: ring.New(32), Scheme: qm.Layers[0].Scheme}
	sconn, cconn := transport.Pipe()
	defer cconn.Close()
	var (
		wg   sync.WaitGroup
		serr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, err := core.NewServerEngine(sconn, qm, p, core.ReLUGC)
		if err == nil {
			err = srv.InstallCorr(sc)
		}
		if err == nil {
			err = srv.Online()
		}
		if serr = err; err != nil {
			sconn.Close()
		}
	}()
	cli, err := core.NewClientEngine(cconn, core.ArchOf(qm), p, core.ReLUGC, prg.New(prg.SeedFromInt(2)))
	if err == nil {
		err = cli.InstallCorr(cc)
	}
	X := ring.NewMat(qm.Layers[0].In, sc.Batch)
	g := prg.New(prg.SeedFromInt(3))
	for i := range X.Data {
		X.Data[i] = p.Ring.FromSigned(int64(g.Intn(128) - 64))
	}
	var got *ring.Mat
	if err == nil {
		got, err = cli.Predict(X)
	}
	if err != nil {
		cconn.Close()
	}
	wg.Wait()
	if err != nil || serr != nil {
		t.Fatalf("client: %v, server: %v", err, serr)
	}
	for k := 0; k < sc.Batch; k++ {
		x := make(ring.Vec, X.Rows)
		for i := range x {
			x[i] = X.At(i, k)
		}
		for i, w := range qm.ForwardRing(p.Ring, x) {
			if got.At(i, k) != w {
				t.Fatalf("sample %d output %d: secure %d, plaintext %d", k, i, got.At(i, k), w)
			}
		}
	}
}
