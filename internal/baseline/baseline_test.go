package baseline

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"abnn2/internal/par"
	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

func TestMiniONNTriplets(t *testing.T) {
	rg := ring.New(32)
	ca, cb, meter := transport.MeteredPipe()
	defer ca.Close()
	var (
		cl   *MiniONNClient
		cerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl, cerr = NewMiniONNClient(ca, rg, 512, 0, prg.New(prg.SeedFromInt(4)))
	}()
	sv, serr := NewMiniONNServer(cb, rg, 0, prg.New(prg.SeedFromInt(5)))
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("setup: %v %v", cerr, serr)
	}
	const m, n, o = 3, 4, 2
	g := prg.New(prg.SeedFromInt(6))
	W := make([]int64, m*n)
	for i := range W {
		W[i] = int64(g.Intn(255)) - 127
	}
	R := g.Mat(rg, n, o)
	var (
		V  *ring.Mat
		ce error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		V, ce = cl.GenerateClient(m, R)
	}()
	U, se := sv.GenerateServer(W, m, n, o)
	wg.Wait()
	if ce != nil || se != nil {
		t.Fatalf("%v %v", ce, se)
	}
	Wm := ring.NewMat(m, n)
	for i, w := range W {
		Wm.Data[i] = rg.FromSigned(w)
	}
	want := rg.MulMat(Wm, R)
	got := rg.AddMat(U, V)
	if !rg.EqualMat(got, want) {
		t.Fatal("minionn triplets incorrect")
	}
	if meter.Snapshot().TotalBytes() == 0 {
		t.Fatal("no traffic recorded")
	}
}

// tapeConn keeps a copy of every message its party sends.
type tapeConn struct {
	transport.Conn
	sent [][]byte
}

func (c *tapeConn) Send(msg []byte) error {
	c.sent = append(c.sent, append([]byte(nil), msg...))
	return c.Conn.Send(msg)
}

// minionnTranscript runs one seeded MiniONN set-up and matmul under the
// given GOMAXPROCS and worker bound and returns everything each party sent.
func minionnTranscript(t *testing.T, procs, workers int) (client, server [][]byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rg := ring.New(32)
	a, b := transport.Pipe()
	defer a.Close()
	ca, cb := &tapeConn{Conn: a}, &tapeConn{Conn: b}
	const m, n, o = 3, 4, 2
	g := prg.New(prg.SeedFromInt(6))
	W := make([]int64, m*n)
	for i := range W {
		W[i] = int64(g.Intn(255)) - 127
	}
	R := g.Mat(rg, n, o)
	cerr := make(chan error, 1)
	go func() {
		cl, err := NewMiniONNClient(ca, rg, 512, workers, prg.New(prg.SeedFromInt(4)))
		if err == nil {
			_, err = cl.GenerateClient(m, R)
		}
		cerr <- err
	}()
	sv, err := NewMiniONNServer(cb, rg, workers, prg.New(prg.SeedFromInt(5)))
	if err == nil {
		_, err = sv.GenerateServer(W, m, n, o)
	}
	if cerr := <-cerr; cerr != nil || err != nil {
		t.Fatalf("GOMAXPROCS=%d: client %v, server %v", procs, cerr, err)
	}
	return ca.sent, cb.sent
}

// TestMiniONNTranscriptIgnoresGOMAXPROCS: with both parties seeded, every
// byte either sends — public key, ciphertexts, response — is the same on
// one CPU as on four, and under a worker bound of 1 as of 8: each
// ciphertext's randomness comes from its own child PRG, derived in index
// order, not from whichever worker ran it.
func TestMiniONNTranscriptIgnoresGOMAXPROCS(t *testing.T) {
	c1, s1 := minionnTranscript(t, 1, 0)
	for _, other := range []struct {
		name           string
		procs, workers int
	}{{"GOMAXPROCS=4", 4, 0}, {"Workers=1", 4, 1}, {"Workers=8", 4, 8}} {
		c, s := minionnTranscript(t, other.procs, other.workers)
		for _, side := range []struct {
			party string
			a, b  [][]byte
		}{{"client", c1, c}, {"server", s1, s}} {
			if len(side.a) != len(side.b) {
				t.Fatalf("%s sent %d messages under GOMAXPROCS=1, %d under %s", side.party, len(side.a), len(side.b), other.name)
			}
			for i := range side.a {
				if !bytes.Equal(side.a[i], side.b[i]) {
					t.Errorf("%s message %d (%d bytes) differs between GOMAXPROCS=1 and %s", side.party, i, len(side.a[i]), other.name)
				}
			}
		}
	}
}

// TestMiniONNHonoursWorkers: the bound the constructors are given is the one
// every parallel loop of both parties runs under. At 1 no two loop bodies
// are ever in flight at once (the two parties alternate, so their loops
// never overlap either); before the bound was threaded through, all four
// loops asked for one worker per CPU whatever the session was given.
func TestMiniONNHonoursWorkers(t *testing.T) {
	var (
		mu             sync.Mutex
		inFlight, peak int
		asked          []int
	)
	enter := func(d int) {
		mu.Lock()
		defer mu.Unlock()
		if inFlight += d; inFlight > peak {
			peak = inFlight
		}
	}
	chunksErr = func(workers, n int, fn func(c, lo, hi int) error) error {
		mu.Lock()
		asked = append(asked, workers)
		mu.Unlock()
		return par.ChunksErr(workers, n, func(c, lo, hi int) error {
			enter(1)
			defer enter(-1)
			return fn(c, lo, hi)
		})
	}
	defer func() { chunksErr = par.ChunksErr }()

	minionnTranscript(t, 4, 1)
	if len(asked) != 4 {
		t.Errorf("%d parallel loops ran, want 4 (encrypt, unmarshal, product, decrypt)", len(asked))
	}
	for _, w := range asked {
		if w != 1 {
			t.Errorf("a loop asked for %d workers, want the bound of 1", w)
		}
	}
	if peak != 1 {
		t.Errorf("%d loop bodies in flight at once under Workers=1", peak)
	}
}

// A malicious client can hand the MiniONN server any bytes as its
// Paillier ciphertext flight. An all-zero flight of the correct length
// used to reach MulConst's modular inversion (undefined for non-units)
// and panic the server; it must now fail at Unmarshal with an error.
func TestMiniONNRejectsNonUnitCiphertexts(t *testing.T) {
	ca, cb := transport.Pipe()
	rg := ring.New(32)
	var (
		srv  *MiniONNServer
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, serr = NewMiniONNServer(cb, rg, 0, prg.New(prg.SeedFromInt(21)))
	}()
	cl, cerr := NewMiniONNClient(ca, rg, 512, 0, prg.New(prg.SeedFromInt(22)))
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("setup: client=%v server=%v", cerr, serr)
	}
	_ = cl
	m, n, o := 2, 2, 1
	ctBytes := srv.pk.CiphertextBytes()
	if err := ca.Send(make([]byte, n*o*ctBytes)); err != nil {
		t.Fatal(err)
	}
	W := []int64{1, -3, 2, -1} // negative weights force the inversion path
	if _, err := srv.GenerateServer(W, m, n, o); err == nil {
		t.Fatal("server accepted non-unit ciphertexts")
	}
}
