package core

import (
	"reflect"
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

func nonlinearPair(t *testing.T, rg ring.Ring) (*ClientNonlinear, *ServerNonlinear, *transport.Meter, func()) {
	t.Helper()
	ca, cb, meter := transport.MeteredPipe()
	var (
		cn  *ClientNonlinear
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cn, err = NewClientNonlinear(ca, rg, 5, prg.New(prg.SeedFromInt(1)))
	}()
	sn, serr := NewServerNonlinear(cb, rg, 5, prg.New(prg.SeedFromInt(2)))
	wg.Wait()
	if err != nil || serr != nil {
		t.Fatalf("setup: %v %v", err, serr)
	}
	return cn, sn, meter, func() { ca.Close() }
}

// runReLU shares ys, runs the protocol, and checks z0+z1 = ReLU(y).
func runReLU(t *testing.T, rg ring.Ring, variant ReLUVariant, ys []int64) transport.Stats {
	t.Helper()
	cn, sn, meter, done := nonlinearPair(t, rg)
	defer done()
	rng := prg.New(prg.SeedFromInt(77))
	n := len(ys)
	y0 := make(ring.Vec, n)
	y1 := make(ring.Vec, n)
	z1 := rng.Vec(rg, n)
	for i, y := range ys {
		y1[i] = rng.Elem(rg)
		y0[i] = rg.Sub(rg.FromSigned(y), y1[i])
	}
	meter.Reset()
	var (
		cerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cerr = cn.ReLUClient(variant, y1, z1)
	}()
	z0, serr := sn.ReLUServer(variant, y0)
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("variant %v: client=%v server=%v", variant, cerr, serr)
	}
	for i, y := range ys {
		want := int64(0)
		if y > 0 {
			want = y
		}
		got := rg.Signed(rg.Add(z0[i], z1[i]))
		if got != want {
			t.Errorf("variant %v neuron %d (y=%d): ReLU = %d, want %d", variant, i, y, got, want)
		}
	}
	return meter.Snapshot()
}

func TestReLUBothVariants(t *testing.T) {
	ys := []int64{0, 1, -1, 500, -500, 32000, -32000, 12345, -12345}
	for _, variant := range []ReLUVariant{ReLUGC, ReLUOptimized} {
		for _, bits := range []uint{16, 32} {
			runReLU(t, ring.New(bits), variant, ys)
		}
	}
}

func TestReLU64Bit(t *testing.T) {
	ys := []int64{1 << 40, -(1 << 40), 7, -7}
	runReLU(t, ring.New(64), ReLUGC, ys)
	runReLU(t, ring.New(64), ReLUOptimized, ys)
}

// The optimised variant must move fewer garbled-table bytes: its circuit
// is ~1/3 the AND gates. Total traffic should reflect that.
func TestOptimizedReLUCheaper(t *testing.T) {
	ys := make([]int64, 64)
	for i := range ys {
		ys[i] = int64(i*37 - 1000)
	}
	rg := ring.New(32)
	full := runReLU(t, rg, ReLUGC, ys)
	opt := runReLU(t, rg, ReLUOptimized, ys)
	if opt.TotalBytes() >= full.TotalBytes() {
		t.Errorf("optimized ReLU used %d bytes, full GC %d", opt.TotalBytes(), full.TotalBytes())
	}
}

// Vectors longer than one chunk must be processed correctly across the
// chunk boundary.
func TestReLUChunkBoundary(t *testing.T) {
	n := reluChunk + 37
	ys := make([]int64, n)
	for i := range ys {
		ys[i] = int64(i - n/2)
	}
	runReLU(t, ring.New(16), ReLUGC, ys)
	runReLU(t, ring.New(16), ReLUOptimized, ys)
}

func TestReLUShareLengthMismatch(t *testing.T) {
	cn, _, _, done := nonlinearPair(t, ring.New(16))
	defer done()
	if err := cn.ReLUClient(ReLUGC, make(ring.Vec, 2), make(ring.Vec, 3)); err == nil {
		t.Error("length mismatch accepted")
	}
}

// sentLog records every flight one party sends, set-up included.
type sentLog struct {
	transport.Conn
	sent [][]byte
}

func (l *sentLog) Send(msg []byte) error {
	l.sent = append(l.sent, append([]byte(nil), msg...))
	return l.Conn.Send(msg)
}

// TestReLUIsPoolOfOne pins the identity the one driver rests on: from the
// same seeds, a ReLU layer and a fused max pool over the windows {0}, {1},
// ... put the same bytes on the wire in both directions — set-up, label
// OTs and garbled material — and leave the server the same z0. One
// circuit's worth of neurons and less: above poolChunk the two entry points
// differ in where they cut the layer, and in nothing else.
func TestReLUIsPoolOfOne(t *testing.T) {
	rg := ring.New(32)
	run := func(n int, client func(*ClientNonlinear, ring.Vec, ring.Vec) error, server func(*ServerNonlinear, ring.Vec) (ring.Vec, error)) (cli, srv [][]byte, z0 ring.Vec) {
		t.Helper()
		ca, cb := transport.Pipe()
		defer ca.Close()
		lc, ls := &sentLog{Conn: ca}, &sentLog{Conn: cb}
		shares := prg.New(prg.SeedFromInt(33))
		y1, z1, y0 := shares.Vec(rg, n), shares.Vec(rg, n), shares.Vec(rg, n)
		done := make(chan error, 1)
		go func() {
			cn, err := NewClientNonlinear(lc, rg, sessionGC, prg.New(prg.SeedFromInt(31)))
			if err == nil {
				err = client(cn, y1, z1)
			}
			done <- err
		}()
		sn, err := NewServerNonlinear(ls, rg, sessionGC, prg.New(prg.SeedFromInt(32)))
		if err == nil {
			z0, err = server(sn, y0)
		}
		if cerr := <-done; cerr != nil || err != nil {
			t.Fatalf("n=%d: client=%v server=%v", n, cerr, err)
		}
		return lc.sent, ls.sent, z0
	}
	for _, n := range []int{1, 300, poolChunk} {
		windows := make([][]int, n)
		for i := range windows {
			windows[i] = []int{i}
		}
		rc, rs, rz := run(n,
			func(cn *ClientNonlinear, y1, z1 ring.Vec) error { return cn.ReLUClient(ReLUGC, y1, z1) },
			func(sn *ServerNonlinear, y0 ring.Vec) (ring.Vec, error) { return sn.ReLUServer(ReLUGC, y0) })
		pc, ps, pz := run(n,
			func(cn *ClientNonlinear, y1, z1 ring.Vec) error { return cn.MaxPoolClient(y1, z1, windows, true) },
			func(sn *ServerNonlinear, y0 ring.Vec) (ring.Vec, error) { return sn.MaxPoolServer(y0, windows, true) })
		if !reflect.DeepEqual(rc, pc) {
			t.Errorf("n=%d: the client sends different bytes for a ReLU and for a pool of window one", n)
		}
		if !reflect.DeepEqual(rs, ps) {
			t.Errorf("n=%d: the server sends different bytes for a ReLU and for a pool of window one", n)
		}
		if !reflect.DeepEqual(rz, pz) {
			t.Errorf("n=%d: z0 differs between a ReLU and a pool of window one", n)
		}
		if len(rc) == 0 || len(rs) == 0 || len(rz) != n {
			t.Fatalf("n=%d: recorded %d client flights, %d server flights, %d shares", n, len(rc), len(rs), len(rz))
		}
	}
}
