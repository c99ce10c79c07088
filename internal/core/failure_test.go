package core

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"abnn2/internal/gc"
	"abnn2/internal/leakcheck"
	"abnn2/internal/nn"
	"abnn2/internal/otext"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// Failure injection: protocol parties must reject malformed peer
// messages with errors, never panic or silently mis-share.

// rogueTripletClient performs a correct OT-extension setup and column
// round, then sends a truncated payload.
func TestServerRejectsTruncatedPayload(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Binary()}
	ca, cb, _ := transport.MeteredPipe()
	defer ca.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A rogue client: real OT sender setup + extension, bogus payload.
		snd, err := otext.NewSender(ca, schemeCode(p.Scheme), sessionTriplets, prg.New(prg.SeedFromInt(1)))
		if err != nil {
			t.Errorf("rogue setup: %v", err)
			return
		}
		if _, err := snd.Extend(4); err != nil {
			t.Errorf("rogue extend: %v", err)
			return
		}
		snd.Conn().Send([]byte{1, 2, 3}) // far too short
	}()
	st, err := NewServerTripletsSeeded(cb, p, sessionTriplets, prg.New(prg.NewSeed()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.GenerateServer(MatShape{M: 2, N: 2, O: 1}, []int64{0, 1, 1, 0}, OneBatch)
	wg.Wait()
	if err == nil {
		t.Fatal("truncated payload accepted")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Logf("error (acceptable, just not the specific one): %v", err)
	}
}

// The server engine must reject a masked-input message of the wrong size.
func TestServerEngineRejectsMalformedInput(t *testing.T) {
	scheme := quant.Binary()
	m := nn.NewModel(4, 2)
	m.InitXavier(prg.New(prg.SeedFromInt(2)))
	qm := nn.Quantize(m, scheme, 4)
	p := Params{Ring: ring.New(32), Scheme: scheme}
	ca, cb, _ := transport.MeteredPipe()
	defer ca.Close()
	var (
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, err := NewServerEngine(ca, qm, p, ReLUGC)
		if err == nil {
			err = srv.Offline(1)
		}
		if err == nil {
			err = srv.Online()
		}
		srvErr = err
	}()
	cli, err := NewClientEngine(cb, ArchOf(qm), p, ReLUGC, prg.New(prg.SeedFromInt(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Offline(1); err != nil {
		t.Fatal(err)
	}
	// Send a garbage masked-input directly instead of calling Predict.
	if err := cb.Send([]byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr == nil {
		t.Fatal("server accepted malformed masked input")
	}
}

// A dropped connection mid-offline must surface as an error on the
// surviving party, not a hang (the pipe close unblocks Recv).
func TestOfflineSurvivesPeerDisappearing(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Binary()}
	ca, cb, _ := transport.MeteredPipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Client completes setup then vanishes.
		ct, err := NewClientTriplets(ca, p, sessionTriplets, prg.New(prg.SeedFromInt(4)))
		if err != nil {
			t.Errorf("client setup: %v", err)
		}
		_ = ct
		ca.Close()
	}()
	st, err := NewServerTripletsSeeded(cb, p, sessionTriplets, prg.New(prg.NewSeed()))
	if err != nil {
		// Setup itself may fail if the close raced in; also fine.
		wg.Wait()
		return
	}
	_, err = st.GenerateServer(MatShape{M: 4, N: 4, O: 1}, make([]int64, 16), OneBatch)
	wg.Wait()
	if err == nil {
		t.Fatal("server succeeded against a vanished peer")
	}
}

// runTripletsFaulted runs one full triplet session (base-OT setup +
// extension + payload rounds) for the given shape with each side's
// connection wrapped per the given fault plans, returning both parties'
// errors. A nil-class plan is a clean run.
func runTripletsFaulted(t *testing.T, shape MatShape, cliPlan, srvPlan transport.FaultPlan) (cliErr, srvErr error, cliConn, srvConn *transport.FaultConn) {
	t.Helper()
	return runOfflineFaulted(t, cliPlan, srvPlan,
		func(ct *ClientTriplets) error {
			_, err := ct.GenerateClient(shape, ring.NewMat(shape.N, shape.O), ModeFor(shape.O))
			return err
		},
		func(st *ServerTriplets) error {
			_, err := st.GenerateServer(shape, make([]int64, shape.M*shape.N), ModeFor(shape.O))
			return err
		})
}

// runOfflineFaulted is runTripletsFaulted for any offline work: each
// party sets its binary-scheme generator up over its faulted connection
// and then runs its function.
func runOfflineFaulted(t *testing.T, cliPlan, srvPlan transport.FaultPlan, client func(*ClientTriplets) error, server func(*ServerTriplets) error) (cliErr, srvErr error, cliConn, srvConn *transport.FaultConn) {
	t.Helper()
	p := Params{Ring: ring.New(32), Scheme: quant.Binary()}
	ca, cb := transport.Pipe()
	fc := transport.Fault(ca, cliPlan)
	fs := transport.Fault(cb, srvPlan)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ct, err := NewClientTriplets(fc, p, sessionTriplets, prg.New(prg.SeedFromInt(11)))
		if err == nil {
			err = client(ct)
		}
		cliErr = err
	}()
	st, err := NewServerTripletsSeeded(fs, p, sessionTriplets, prg.New(prg.NewSeed()))
	if err == nil {
		err = server(st)
	}
	srvErr = err
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("triplet run hung:\n%s", buf[:runtime.Stack(buf, true)])
	}
	fc.Close()
	return cliErr, srvErr, fc, fs
}

// TestTripletsSurviveDisconnectAtEveryMessage closes the connection at
// every message boundary of the triplet protocol, on each side in turn.
// Whatever the cut point — mid base-OT, mid extension, or during the
// payload round — both parties must return an error rather than hang:
// the disconnecting side sees its own send fail, the survivor sees the
// hangup on its next wire operation. The pipelined shape has more chunks
// than the offline window, so cuts land with the server's producer
// anywhere from zero to a full window ahead — in one-batch and in
// multi-batch mode — and every cut must leave no goroutine behind.
func TestTripletsSurviveDisconnectAtEveryMessage(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape MatShape
	}{
		{"one-chunk", MatShape{M: 2, N: 2, O: 1}},
		{"pipelined/one-batch", MatShape{M: OfflineWindow + 2, N: 4000, O: 1}},
		{"pipelined/multi-batch", MatShape{M: OfflineWindow + 2, N: 4000, O: 2}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cliErr, srvErr, fc, fs := runTripletsFaulted(t, tc.shape, transport.FaultPlan{}, transport.FaultPlan{})
			if cliErr != nil || srvErr != nil {
				t.Fatalf("clean run failed: client=%v server=%v", cliErr, srvErr)
			}
			cliSends, srvSends := fc.Sends(), fs.Sends()
			t.Logf("triplet session: client sends %d messages, server sends %d", cliSends, srvSends)
			base := leakcheck.Base()
			for i := 0; i < cliSends; i++ {
				cliErr, srvErr, _, _ := runTripletsFaulted(t, tc.shape,
					transport.FaultPlan{Class: transport.FaultDisconnect, Message: i},
					transport.FaultPlan{})
				if cliErr == nil || srvErr == nil {
					t.Errorf("client disconnect at message %d: client=%v server=%v (both should error)", i, cliErr, srvErr)
				}
			}
			for i := 0; i < srvSends; i++ {
				cliErr, srvErr, _, _ := runTripletsFaulted(t, tc.shape,
					transport.FaultPlan{},
					transport.FaultPlan{Class: transport.FaultDisconnect, Message: i})
				if cliErr == nil || srvErr == nil {
					t.Errorf("server disconnect at message %d: client=%v server=%v (both should error)", i, cliErr, srvErr)
				}
			}
			leakcheck.Settle(t, base, tc.name)
		})
	}
}

// runNonlinearFaulted runs one full nonlinear session (base-OT setup +
// one GC layer over eight output values) under the given fault plans.
func runNonlinearFaulted(t *testing.T, cliPlan, srvPlan transport.FaultPlan, client func(*ClientNonlinear, *prg.PRG) error, server func(*ServerNonlinear, *prg.PRG) error) (cliErr, srvErr error, cliConn, srvConn *transport.FaultConn) {
	t.Helper()
	rg := ring.New(32)
	ca, cb := transport.Pipe()
	fc := transport.Fault(ca, cliPlan)
	fs := transport.Fault(cb, srvPlan)
	done := make(chan struct{})
	go func() {
		defer close(done)
		cn, err := NewClientNonlinear(fc, rg, sessionGC, prg.New(prg.SeedFromInt(21)))
		if err == nil {
			err = client(cn, prg.New(prg.SeedFromInt(22)))
		}
		cliErr = err
	}()
	sn, err := NewServerNonlinear(fs, rg, sessionGC, prg.New(prg.SeedFromInt(23)))
	if err == nil {
		err = server(sn, prg.New(prg.SeedFromInt(24)))
	}
	srvErr = err
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("nonlinear run hung:\n%s", buf[:runtime.Stack(buf, true)])
	}
	fc.Close()
	return cliErr, srvErr, fc, fs
}

// TestReLUSurvivesDisconnectAtEveryMessage is the counterpart for the GC
// layers: every message boundary, each side in turn, for every entry
// point over the one garble/evaluate driver — both ReLU variants (the
// optimised one adds its two plain flights) and a fused max pool.
func TestReLUSurvivesDisconnectAtEveryMessage(t *testing.T) {
	const n = 8
	rg := ring.New(32)
	windows := make([][]int, n)
	for i := range windows {
		windows[i] = []int{2 * i, 2*i + 1}
	}
	type layer struct {
		name   string
		client func(*ClientNonlinear, *prg.PRG) error
		server func(*ServerNonlinear, *prg.PRG) error
	}
	relu := func(name string, variant ReLUVariant) layer {
		return layer{name,
			func(cn *ClientNonlinear, rng *prg.PRG) error {
				return cn.ReLUClient(variant, rng.Vec(rg, n), rng.Vec(rg, n))
			},
			func(sn *ServerNonlinear, rng *prg.PRG) error {
				_, err := sn.ReLUServer(variant, rng.Vec(rg, n))
				return err
			}}
	}
	for _, tc := range []layer{
		relu("relu/gc", ReLUGC),
		relu("relu/optimized", ReLUOptimized),
		{"pool",
			func(cn *ClientNonlinear, rng *prg.PRG) error {
				return cn.MaxPoolClient(rng.Vec(rg, 2*n), rng.Vec(rg, n), windows, true)
			},
			func(sn *ServerNonlinear, rng *prg.PRG) error {
				_, err := sn.MaxPoolServer(rng.Vec(rg, 2*n), windows, true)
				return err
			}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cliErr, srvErr, fc, fs := runNonlinearFaulted(t, transport.FaultPlan{}, transport.FaultPlan{}, tc.client, tc.server)
			if cliErr != nil || srvErr != nil {
				t.Fatalf("clean run failed: client=%v server=%v", cliErr, srvErr)
			}
			cliSends, srvSends := fc.Sends(), fs.Sends()
			t.Logf("client sends %d messages, server sends %d", cliSends, srvSends)
			base := leakcheck.Base()
			for i := 0; i < cliSends; i++ {
				cliErr, srvErr, _, _ := runNonlinearFaulted(t,
					transport.FaultPlan{Class: transport.FaultDisconnect, Message: i},
					transport.FaultPlan{}, tc.client, tc.server)
				if cliErr == nil || srvErr == nil {
					t.Errorf("client disconnect at message %d: client=%v server=%v (both should error)", i, cliErr, srvErr)
				}
			}
			for i := 0; i < srvSends; i++ {
				cliErr, srvErr, _, _ := runNonlinearFaulted(t,
					transport.FaultPlan{},
					transport.FaultPlan{Class: transport.FaultDisconnect, Message: i}, tc.client, tc.server)
				if cliErr == nil || srvErr == nil {
					t.Errorf("server disconnect at message %d: client=%v server=%v (both should error)", i, cliErr, srvErr)
				}
			}
			leakcheck.Settle(t, base, tc.name)
		})
	}
}

// Argmax client must reject out-of-range masked indices (corrupt peer).
func TestArgmaxRejectsGarbage(t *testing.T) {
	rg := ring.New(16)
	ca, cb, _ := transport.MeteredPipe()
	defer ca.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Rogue server: proper GC evaluator setup and run, then send a
		// wrong-size message instead of forwarding masked indices.
		sn, err := NewServerNonlinear(ca, rg, sessionGC, prg.New(prg.SeedFromInt(5)))
		if err != nil {
			t.Errorf("rogue setup: %v", err)
			return
		}
		// Evaluate the argmax circuit legitimately (to keep the GC
		// transcript in sync), then send garbage.
		circ := gc.BatchArgmaxCircuit(rg.Bits(), 3, indexBits(3), 1)
		if _, err := sn.eval.Run(circ, make([]byte, 3*int(rg.Bits()))); err != nil {
			t.Errorf("rogue evaluate: %v", err)
			return
		}
		sn.conn.Send(make([]byte, 99))
	}()
	cn, err := NewClientNonlinear(cb, rg, sessionGC, prg.New(prg.SeedFromInt(6)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cn.ArgmaxClient(make(ring.Vec, 3), 3, 1)
	wg.Wait()
	if err == nil {
		t.Fatal("argmax client accepted wrong-size message")
	}
}
