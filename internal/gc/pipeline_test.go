package gc

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"abnn2/internal/leakcheck"
	"abnn2/internal/par"
	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// The pipelined round: garbling runs ahead of the garbler's sends by a
// bounded window, evaluation runs behind the evaluator's receives, and
// neither changes a byte, an order or a failure mode of the strict
// garble-all / send-all / evaluate-all round it replaced.

// sendLog wraps an endpoint and keeps a copy of every flight it sends.
type sendLog struct {
	transport.Conn
	mu      sync.Mutex
	flights [][]byte
}

func (l *sendLog) Send(msg []byte) error {
	l.mu.Lock()
	l.flights = append(l.flights, append([]byte(nil), msg...))
	l.mu.Unlock()
	return l.Conn.Send(msg)
}

// sent returns the flights logged from index `from` on.
func (l *sendLog) sent(from int) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flights[from:]
}

// newParties runs the base-OT setup of a garbler on gconn and an
// evaluator on econn, seeded.
func newParties(gconn, econn transport.Conn) (g *Garbler, e *Evaluator, gerr, eerr error) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g, gerr = NewGarbler(gconn, 99, prg.New(prg.SeedFromInt(1)))
	}()
	e, eerr = NewEvaluator(econn, 99, prg.New(prg.SeedFromInt(2)))
	wg.Wait()
	return g, e, gerr, eerr
}

// unequalBatch is a three-circuit batch of unequal sizes, the shape of a
// pooled CNN layer (a full pool chunk, a short one, and a different
// circuit altogether), with random inputs.
func unequalBatch() (circs []*Circuit, gbits, ebits [][]byte) {
	circs = []*Circuit{
		BatchMaxPoolCircuit(8, 4, 6, true),
		BatchMaxPoolCircuit(8, 4, 2, true),
		BatchReLUCircuit(8, 5),
	}
	in := prg.New(prg.SeedFromInt(77))
	for _, c := range circs {
		gb, eb := in.Bytes(c.NumGarbler), in.Bytes(c.NumEvaluator)
		for i := range gb {
			gb[i] &= 1
		}
		for i := range eb {
			eb[i] &= 1
		}
		gbits, ebits = append(gbits, gb), append(ebits, eb)
	}
	return circs, gbits, ebits
}

// bothSides runs the garbler's and the evaluator's half of a round
// concurrently and returns both results.
func bothSides(garble func() error, evaluate func() ([][]byte, error)) (outs [][]byte, gerr, eerr error) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gerr = garble()
	}()
	outs, eerr = evaluate()
	wg.Wait()
	return outs, gerr, eerr
}

// TestRunBatchTranscriptIdentity runs the unequal three-circuit batch
// three ways from the same seeds: RunBatch with one worker, RunBatch with
// eight, and three consecutive Run calls. The worker count must not
// reach the wire: both parties' flights are byte-identical. Against the
// Run calls — which garble straight from the garbler's stream where a
// batch garbles from per-circuit children, so the labels legitimately
// differ — the evaluator's flights are still byte-identical and the
// garbler's have the same sizes in the same order. All three decode to
// the circuits' outputs in the clear.
func TestRunBatchTranscriptIdentity(t *testing.T) {
	circs, gbits, ebits := unequalBatch()
	type run struct {
		g, e [][]byte
		outs [][]byte
	}
	do := func(workers int, batch bool) run {
		t.Helper()
		ca, cb := transport.Pipe()
		defer ca.Close()
		gl, el := &sendLog{Conn: ca}, &sendLog{Conn: cb}
		g, e, gerr, eerr := newParties(gl, el)
		if gerr != nil || eerr != nil {
			t.Fatalf("setup: %v %v", gerr, eerr)
		}
		g.SetWorkers(workers)
		e.SetWorkers(workers)
		gFrom, eFrom := len(gl.sent(0)), len(el.sent(0))
		var outs [][]byte
		if batch {
			outs, gerr, eerr = bothSides(
				func() error { return g.RunBatch(circs, gbits) },
				func() ([][]byte, error) { return e.RunBatch(circs, ebits) })
		} else {
			outs, gerr, eerr = bothSides(
				func() error {
					for i, c := range circs {
						if err := g.Run(c, gbits[i]); err != nil {
							return err
						}
					}
					return nil
				},
				func() ([][]byte, error) {
					var outs [][]byte
					for i, c := range circs {
						out, err := e.Run(c, ebits[i])
						if err != nil {
							return nil, err
						}
						outs = append(outs, out)
					}
					return outs, nil
				})
		}
		if gerr != nil || eerr != nil {
			t.Fatalf("workers=%d batch=%v: garbler=%v evaluator=%v", workers, batch, gerr, eerr)
		}
		return run{g: gl.sent(gFrom), e: el.sent(eFrom), outs: outs}
	}
	one, eight, single := do(1, true), do(8, true), do(1, false)

	equalFlights := func(a, b [][]byte) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	if len(one.g) != len(circs) || len(one.e) != len(circs) {
		t.Fatalf("batch of %d: garbler sent %d flights, evaluator %d", len(circs), len(one.g), len(one.e))
	}
	if !equalFlights(one.g, eight.g) || !equalFlights(one.e, eight.e) {
		t.Error("Workers 1 and Workers 8 put different bytes on the wire")
	}
	if !equalFlights(one.e, single.e) {
		t.Error("the evaluator's flights differ between RunBatch and consecutive Run calls")
	}
	if len(single.g) != len(one.g) {
		t.Fatalf("consecutive Run calls sent %d garbler flights, RunBatch %d", len(single.g), len(one.g))
	}
	for i := range one.g {
		if len(one.g[i]) != len(single.g[i]) || len(one.g[i]) != flightBytes(circs[i]) {
			t.Errorf("garbler flight %d: %d bytes batched, %d by Run, want %d",
				i, len(one.g[i]), len(single.g[i]), flightBytes(circs[i]))
		}
	}
	for i, c := range circs {
		want := plainEval(c, gbits[i], ebits[i])
		for name, r := range map[string]run{"workers=1": one, "workers=8": eight, "run": single} {
			if !bytes.Equal(r.outs[i], want) {
				t.Errorf("%s: circuit %d decoded wrongly", name, i)
			}
		}
	}
}

// TestGarblerRunAheadBound stalls the evaluator — it never sends circuit
// 0's OT columns — and requires the garbler to garble exactly workers+1
// circuits of an 8-circuit batch and then wait: the run-ahead window, not
// the batch, is what bounds its memory. Once the evaluator shows up the
// batch completes correctly.
func TestGarblerRunAheadBound(t *testing.T) {
	const batch = 8
	c := BatchReLUCircuit(8, 4)
	circs := make([]*Circuit, batch)
	gbits, ebits := make([][]byte, batch), make([][]byte, batch)
	for i := range circs {
		circs[i] = c
		gbits[i], ebits[i] = make([]byte, c.NumGarbler), make([]byte, c.NumEvaluator)
		gbits[i][0], ebits[i][i%c.NumEvaluator] = 1, 1
	}
	for _, workers := range []int{1, 3} {
		base := leakcheck.Base()
		ca, cb := transport.Pipe()
		g, e, gerr, eerr := newParties(ca, cb)
		if gerr != nil || eerr != nil {
			t.Fatalf("setup: %v %v", gerr, eerr)
		}
		g.SetWorkers(workers)
		e.SetWorkers(workers)
		gdone := make(chan error, 1)
		go func() { gdone <- g.RunBatch(circs, gbits) }()

		want := int64(workers + 1)
		deadline := time.Now().Add(20 * time.Second)
		for g.garbled.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d circuits garbled, want %d", workers, g.garbled.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		if got := g.garbled.Load(); got != want {
			t.Errorf("workers=%d: %d of %d circuits garbled with the evaluator stalled, want workers+1 = %d",
				workers, got, batch, want)
		}

		outs, err := e.RunBatch(circs, ebits)
		if gerr := <-gdone; gerr != nil || err != nil {
			t.Fatalf("workers=%d: garbler=%v evaluator=%v", workers, gerr, err)
		}
		if got := g.garbled.Load(); got != batch {
			t.Errorf("workers=%d: %d circuits garbled in all, want %d", workers, got, batch)
		}
		for i := range circs {
			if !bytes.Equal(outs[i], plainEval(c, gbits[i], ebits[i])) {
				t.Errorf("workers=%d: circuit %d decoded wrongly", workers, i)
			}
		}
		ca.Close()
		leakcheck.Settle(t, base, "run-ahead bound")
	}
}

// runBatchFaulted runs one whole GC session — base-OT setup and the
// unequal three-circuit batch — with each endpoint under a fault plan.
func runBatchFaulted(t *testing.T, workers int, gPlan, ePlan transport.FaultPlan) (gerr, eerr error, gconn, econn *transport.FaultConn) {
	t.Helper()
	circs, gbits, ebits := unequalBatch()
	ca, cb := transport.Pipe()
	gconn, econn = transport.Fault(ca, gPlan), transport.Fault(cb, ePlan)
	done := make(chan struct{})
	go func() {
		defer close(done)
		g, err := NewGarbler(gconn, 99, prg.New(prg.SeedFromInt(1)))
		if err == nil {
			g.SetWorkers(workers)
			err = g.RunBatch(circs, gbits)
		}
		gerr = err
	}()
	e, err := NewEvaluator(econn, 99, prg.New(prg.SeedFromInt(2)))
	if err == nil {
		e.SetWorkers(workers)
		_, err = e.RunBatch(circs, ebits)
	}
	eerr = err
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("GC session hung:\n%s", buf[:runtime.Stack(buf, true)])
	}
	gconn.Close()
	return gerr, eerr, gconn, econn
}

// TestRunBatchSurvivesDisconnectAtEveryMessage cuts the connection at
// every message boundary of the session, from each side in turn, with
// one and with several workers. Wherever the cut lands — a producer
// garbling ahead, an evaluation still running behind — both parties
// return an ordinary error, nothing hangs, and no goroutine outlives its
// call.
func TestRunBatchSurvivesDisconnectAtEveryMessage(t *testing.T) {
	for _, workers := range []int{1, 4} {
		gerr, eerr, gc, ec := runBatchFaulted(t, workers, transport.FaultPlan{}, transport.FaultPlan{})
		if gerr != nil || eerr != nil {
			t.Fatalf("clean run failed: garbler=%v evaluator=%v", gerr, eerr)
		}
		gSends, eSends := gc.Sends(), ec.Sends()
		t.Logf("workers=%d: garbler sends %d messages, evaluator %d", workers, gSends, eSends)
		base := leakcheck.Base()
		for i := 0; i < gSends; i++ {
			gerr, eerr, _, _ := runBatchFaulted(t, workers,
				transport.FaultPlan{Class: transport.FaultDisconnect, Message: i}, transport.FaultPlan{})
			if gerr == nil || eerr == nil {
				t.Errorf("workers=%d garbler disconnect at message %d: garbler=%v evaluator=%v (both should error)", workers, i, gerr, eerr)
			}
		}
		for i := 0; i < eSends; i++ {
			gerr, eerr, _, _ := runBatchFaulted(t, workers,
				transport.FaultPlan{}, transport.FaultPlan{Class: transport.FaultDisconnect, Message: i})
			if gerr == nil || eerr == nil {
				t.Errorf("workers=%d evaluator disconnect at message %d: garbler=%v evaluator=%v (both should error)", workers, i, gerr, eerr)
			}
		}
		leakcheck.Settle(t, base, "disconnects")
	}
}

// TestEvaluateErrorWaitsForReceiveLoop gives the evaluator a circuit 0
// it cannot evaluate (a gate of unknown kind; the flight sizes are
// untouched). The error must come back — but only after the evaluator
// has played its side of circuits 1 and 2, so the garbler, which has
// nothing wrong, completes its batch instead of blocking in a send to a
// peer that walked away.
func TestEvaluateErrorWaitsForReceiveLoop(t *testing.T) {
	base := leakcheck.Base()
	circs, gbits, ebits := unequalBatch()
	broken := *circs[0]
	broken.Gates = append([]Gate(nil), circs[0].Gates...)
	for i, g := range broken.Gates {
		if g.Kind == GateXOR {
			broken.Gates[i].Kind = 99
			break
		}
	}
	ecircs := []*Circuit{&broken, circs[1], circs[2]}

	ca, cb := transport.Pipe()
	defer ca.Close()
	el := &sendLog{Conn: cb}
	g, e, gerr, eerr := newParties(ca, el)
	if gerr != nil || eerr != nil {
		t.Fatalf("setup: %v %v", gerr, eerr)
	}
	g.SetWorkers(1)
	e.SetWorkers(1)
	from := len(el.sent(0))
	_, gerr, eerr = bothSides(
		func() error { return g.RunBatch(circs, gbits) },
		func() ([][]byte, error) { return e.RunBatch(ecircs, ebits) })
	if gerr != nil {
		t.Errorf("garbler: %v, want a completed batch", gerr)
	}
	if eerr == nil || !strings.Contains(eerr.Error(), "unknown gate kind") {
		t.Errorf("evaluator: %v, want circuit 0's evaluation error", eerr)
	}
	if got := len(el.sent(from)); got != len(circs) {
		t.Errorf("evaluator sent %d OT flights, want all %d before returning", got, len(circs))
	}
	leakcheck.Settle(t, base, "evaluate error")
}

// TestGarblePanicResurfacesOnCaller makes garbling circuit 1 panic on
// its producer goroutine (a gate writing past the wire array). It must
// come out of RunBatch on the calling goroutine as a *par.ChunkPanic —
// the value the session guard turns into an error — not crash the
// process from a bare goroutine, and leave no producer behind.
func TestGarblePanicResurfacesOnCaller(t *testing.T) {
	base := leakcheck.Base()
	circs, gbits, ebits := unequalBatch()
	poisoned := *circs[1]
	poisoned.Gates = append([]Gate(nil), circs[1].Gates...)
	poisoned.Gates[len(poisoned.Gates)/2].Out = poisoned.NumWires + 5
	gcircs := []*Circuit{circs[0], &poisoned, circs[2]}

	ca, cb := transport.Pipe()
	g, e, gerr, eerr := newParties(ca, cb)
	if gerr != nil || eerr != nil {
		t.Fatalf("setup: %v %v", gerr, eerr)
	}
	g.SetWorkers(1)
	edone := make(chan error, 1)
	go func() {
		_, err := e.RunBatch(circs, ebits)
		edone <- err
	}()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		err := g.RunBatch(gcircs, gbits)
		t.Errorf("RunBatch returned (err=%v), want a panic", err)
	}()
	cp, ok := recovered.(*par.ChunkPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *par.ChunkPanic", recovered, recovered)
	}
	if !strings.Contains(string(cp.Stack), "garble") {
		t.Errorf("chunk panic %v carries a stack without the garbling frame:\n%s", cp.Value, cp.Stack)
	}
	// The garbler is gone mid-batch; hanging up releases the evaluator.
	ca.Close()
	if err := <-edone; err == nil {
		t.Error("evaluator completed a batch the garbler abandoned")
	}
	leakcheck.Settle(t, base, "garble panic")
}
