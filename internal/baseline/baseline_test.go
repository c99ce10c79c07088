package baseline

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

func TestSecureMLTriplets(t *testing.T) {
	rg := ring.New(32)
	for _, o := range []int{1, 3} {
		ca, cb, _ := transport.MeteredPipe()
		var (
			cl   *SecureMLClient
			cerr error
			wg   sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, cerr = NewSecureMLClient(ca, rg, 1, prg.New(prg.SeedFromInt(1)))
		}()
		sv, serr := NewSecureMLServer(cb, rg, 1, prg.New(prg.SeedFromInt(2)))
		wg.Wait()
		if cerr != nil || serr != nil {
			t.Fatalf("setup: %v %v", cerr, serr)
		}
		const m, n = 4, 5
		g := prg.New(prg.SeedFromInt(3))
		W := make([]int64, m*n)
		for i := range W {
			W[i] = int64(g.Intn(1<<16)) - (1 << 15) // full-width signed values
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
		ca.Close()
		if ce != nil || se != nil {
			t.Fatalf("o=%d: %v %v", o, ce, se)
		}
		Wm := ring.NewMat(m, n)
		for i, w := range W {
			Wm.Data[i] = rg.FromSigned(w)
		}
		want := rg.MulMat(Wm, R)
		got := rg.AddMat(U, V)
		if !rg.EqualMat(got, want) {
			t.Fatalf("o=%d: secureml triplets incorrect", o)
		}
	}
}

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
		cl, cerr = NewMiniONNClient(ca, rg, 512, prg.New(prg.SeedFromInt(4)))
	}()
	sv, serr := NewMiniONNServer(cb, rg, prg.New(prg.SeedFromInt(5)))
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
// given GOMAXPROCS and returns everything each party sent.
func minionnTranscript(t *testing.T, procs int) (client, server [][]byte) {
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
		cl, err := NewMiniONNClient(ca, rg, 512, prg.New(prg.SeedFromInt(4)))
		if err == nil {
			_, err = cl.GenerateClient(m, R)
		}
		cerr <- err
	}()
	sv, err := NewMiniONNServer(cb, rg, prg.New(prg.SeedFromInt(5)))
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
// one CPU as on four: each ciphertext's randomness comes from its own
// child PRG, derived in index order, not from whichever worker ran it.
func TestMiniONNTranscriptIgnoresGOMAXPROCS(t *testing.T) {
	c1, s1 := minionnTranscript(t, 1)
	c4, s4 := minionnTranscript(t, 4)
	for _, side := range []struct {
		party  string
		p1, p4 [][]byte
	}{{"client", c1, c4}, {"server", s1, s4}} {
		if len(side.p1) != len(side.p4) {
			t.Fatalf("%s sent %d messages under GOMAXPROCS=1, %d under 4", side.party, len(side.p1), len(side.p4))
		}
		for i := range side.p1 {
			if !bytes.Equal(side.p1[i], side.p4[i]) {
				t.Errorf("%s message %d (%d bytes) differs between GOMAXPROCS=1 and 4", side.party, i, len(side.p1[i]))
			}
		}
	}
}

func TestQuotientTriplets(t *testing.T) {
	rg := ring.New(32)
	ca, cb, _ := transport.MeteredPipe()
	defer ca.Close()
	var (
		cl   *QuotientClient
		cerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl, cerr = NewQuotientClient(ca, rg, 2, prg.New(prg.SeedFromInt(7)))
	}()
	sv, serr := NewQuotientServer(cb, rg, 2, prg.New(prg.SeedFromInt(8)))
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("setup: %v %v", cerr, serr)
	}
	const m, n = 5, 6
	g := prg.New(prg.SeedFromInt(9))
	W := make([]int64, m*n)
	for i := range W {
		W[i] = int64(g.Intn(3)) - 1
	}
	r := g.Vec(rg, n)
	var (
		v  ring.Vec
		ce error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, ce = cl.GenerateClient(m, r)
	}()
	u, se := sv.GenerateServer(W, m, n)
	wg.Wait()
	if ce != nil || se != nil {
		t.Fatalf("%v %v", ce, se)
	}
	for i := 0; i < m; i++ {
		var want ring.Elem
		for j := 0; j < n; j++ {
			want = rg.Add(want, rg.Mul(rg.FromSigned(W[i*n+j]), r[j]))
		}
		if got := rg.Add(u[i], v[i]); got != want {
			t.Fatalf("row %d: %d want %d", i, got, want)
		}
	}
}

func TestQuotientRejectsNonTernary(t *testing.T) {
	rg := ring.New(32)
	ca, cb, _ := transport.MeteredPipe()
	defer ca.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		NewQuotientClient(ca, rg, 3, prg.New(prg.SeedFromInt(10)))
	}()
	sv, err := NewQuotientServer(cb, rg, 3, prg.New(prg.SeedFromInt(11)))
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.GenerateServer([]int64{2}, 1, 1); err == nil {
		t.Error("non-ternary weight accepted")
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
		srv, serr = NewMiniONNServer(cb, rg, prg.New(prg.SeedFromInt(21)))
	}()
	cl, cerr := NewMiniONNClient(ca, rg, 512, prg.New(prg.SeedFromInt(22)))
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
