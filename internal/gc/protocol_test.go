package gc

import (
	"bytes"
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

func setupParties(t *testing.T) (*Garbler, *Evaluator, *transport.Meter, func()) {
	t.Helper()
	ca, cb, m := transport.MeteredPipe()
	g, e, gerr, eerr := newParties(ca, cb)
	if gerr != nil || eerr != nil {
		t.Fatalf("setup: %v %v", gerr, eerr)
	}
	return g, e, m, func() { ca.Close() }
}

func TestProtocolReLU(t *testing.T) {
	const bits = 16
	ys := []int64{1000, -1000, 0, 32767, -32768, 1, -1}
	n := len(ys)
	g, e, _, done := setupParties(t)
	defer done()
	circ := BatchReLUCircuit(bits, n)
	mask := uint64(1<<bits - 1)
	rng := prg.New(prg.SeedFromInt(3))
	y1 := make([]uint64, n)
	z1 := make([]uint64, n)
	y0 := make([]uint64, n)
	for k, y := range ys {
		y1[k] = rng.Uint64() & mask
		z1[k] = rng.Uint64() & mask
		y0[k] = (uint64(y) - y1[k]) & mask
	}
	var (
		gerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		gerr = g.Run(circ, append(VecToBits(y1, bits), VecToBits(z1, bits)...))
	}()
	out, eerr := e.Run(circ, VecToBits(y0, bits))
	wg.Wait()
	if gerr != nil || eerr != nil {
		t.Fatalf("run: %v %v", gerr, eerr)
	}
	z0 := BitsToVec(out, bits, n)
	for k, y := range ys {
		relu := uint64(0)
		if y > 0 {
			relu = uint64(y) & mask
		}
		if got := (z0[k] + z1[k]) & mask; got != relu {
			t.Errorf("neuron %d (y=%d): reconstructed %d want %d", k, y, got, relu)
		}
	}
}

func TestProtocolRepeatedRuns(t *testing.T) {
	const bits = 8
	g, e, _, done := setupParties(t)
	defer done()
	circ := BatchSignCircuit(bits, 2)
	for round := 0; round < 3; round++ {
		y1 := []uint64{uint64(round * 10), 200}
		y0 := []uint64{5, 100}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Run(circ, VecToBits(y1, bits)); err != nil {
				t.Errorf("round %d garbler: %v", round, err)
			}
		}()
		out, err := e.Run(circ, VecToBits(y0, bits))
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d evaluator: %v", round, err)
		}
		for k := 0; k < 2; k++ {
			y := (y1[k] + y0[k]) & 255
			want := byte(1)
			if y&128 != 0 {
				want = 0
			}
			if out[k] != want {
				t.Errorf("round %d neuron %d: sign %d want %d (y=%d)", round, k, out[k], want, y)
			}
		}
	}
}

// After setup, each protocol run must take exactly two flights:
// evaluator->garbler OT columns, garbler->evaluator garbled material.
func TestProtocolOnlineFlights(t *testing.T) {
	g, e, meter, done := setupParties(t)
	defer done()
	circ := BatchReLUCircuit(8, 1)
	meter.Reset()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Run(circ, make([]byte, circ.NumGarbler))
	}()
	if _, err := e.Run(circ, make([]byte, circ.NumEvaluator)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if f := meter.Snapshot().Flights; f != 2 {
		t.Errorf("online flights = %d, want 2", f)
	}
}

// The garbler->evaluator message size must match the analytic GC cost:
// 2*kappa per AND + kappa per evaluator input (the correlated label OT's
// one ciphertext) + packed decode bits. The garbler's input labels are
// derived on both sides, so they cost nothing on the wire.
func TestProtocolCommunicationMatchesFormula(t *testing.T) {
	g, e, meter, done := setupParties(t)
	defer done()
	circ := BatchReLUCircuit(16, 4)
	meter.Reset()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Run(circ, make([]byte, circ.NumGarbler))
	}()
	if _, err := e.Run(circ, make([]byte, circ.NumEvaluator)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	s := meter.Snapshot()
	wantGE := int64(circ.TableBytes() + (circ.numOutputs()+7)/8 + circ.NumEvaluator*LabelSize)
	if s.BytesAB != wantGE {
		t.Errorf("garbler sent %d bytes, want %d", s.BytesAB, wantGE)
	}
	wantEG := int64(((circ.NumEvaluator + 7) &^ 7) * 128 / 8)
	if s.BytesBA != wantEG {
		t.Errorf("evaluator sent %d bytes, want %d", s.BytesBA, wantEG)
	}
}

// TestRunBatchExactCost holds a batch of n circuits to its exact cost on
// the garbler's meter: every flight is flightBytes, every label OT's
// column matrix 128 bits per padded OT, and the columns run columnsAhead
// circuits ahead of the flights, so the round is 2 direction flips up to
// columnsAhead circuits and 2(n-columnsAhead+1) beyond. The evaluator
// never holds more than columnsAhead label-OT blocks.
func TestRunBatchExactCost(t *testing.T) {
	c := BatchReLUCircuit(8, 3)
	for _, n := range []int{1, columnsAhead - 1, columnsAhead, columnsAhead + 1, 2*columnsAhead + 3} {
		g, e, meter, done := setupParties(t)
		circs := make([]*Circuit, n)
		gbits, ebits := make([][]byte, n), make([][]byte, n)
		var wantGE, wantEG int64
		for i := range circs {
			circs[i] = c
			gbits[i], ebits[i] = make([]byte, c.NumGarbler), make([]byte, c.NumEvaluator)
			ebits[i][i%c.NumEvaluator] = 1
			wantGE += int64(flightBytes(c))
			wantEG += int64((c.NumEvaluator + 7) &^ 7 * 128 / 8)
		}
		wantFlights := int64(2)
		if n > columnsAhead {
			wantFlights = int64(2 * (n - columnsAhead + 1))
		}
		meter.Reset()
		outs, gerr, eerr := bothSides(
			func() error { return g.RunBatch(circs, gbits) },
			func() ([][]byte, error) { return e.RunBatch(circs, ebits) })
		done()
		if gerr != nil || eerr != nil {
			t.Fatalf("n=%d: garbler=%v evaluator=%v", n, gerr, eerr)
		}
		s := meter.Snapshot()
		if s.BytesAB != wantGE || s.BytesBA != wantEG || s.Flights != wantFlights {
			t.Errorf("n=%d: garbler sent %d B, evaluator %d B, %d flights; want %d, %d, %d",
				n, s.BytesAB, s.BytesBA, s.Flights, wantGE, wantEG, wantFlights)
		}
		if peak := e.ot.RowScratchPeak(); peak > columnsAhead {
			t.Errorf("n=%d: the evaluator held %d label-OT blocks, want at most %d", n, peak, columnsAhead)
		}
		for i := range circs {
			if !bytes.Equal(outs[i], plainEval(c, gbits[i], ebits[i])) {
				t.Errorf("n=%d: circuit %d decoded wrongly", n, i)
			}
		}
	}
}

// TestInputLabelsDerivedOncePerParty: each party derives the garbler's
// input labels once, for the largest circuit of its first round, and
// later rounds of circuits no larger read the same labels without
// deriving them again. Both parties hold the same labels.
func TestInputLabelsDerivedOncePerParty(t *testing.T) {
	g, e, _, done := setupParties(t)
	defer done()
	round := func(circs ...*Circuit) {
		t.Helper()
		gbits, ebits := make([][]byte, len(circs)), make([][]byte, len(circs))
		for i, c := range circs {
			gbits[i], ebits[i] = make([]byte, c.NumGarbler), make([]byte, c.NumEvaluator)
			gbits[i][i%c.NumGarbler] = 1
		}
		outs, gerr, eerr := bothSides(
			func() error { return g.RunBatch(circs, gbits) },
			func() ([][]byte, error) { return e.RunBatch(circs, ebits) })
		if gerr != nil || eerr != nil {
			t.Fatalf("garbler=%v evaluator=%v", gerr, eerr)
		}
		for i, c := range circs {
			if !bytes.Equal(outs[i], plainEval(c, gbits[i], ebits[i])) {
				t.Fatalf("circuit %d decoded wrongly", i)
			}
		}
	}
	big, small := BatchReLUCircuit(8, 5), BatchReLUCircuit(8, 2)
	round(small, big)
	want := big.NumGarbler * LabelSize
	if len(g.labels) != want || !bytes.Equal(g.labels, e.labels) {
		t.Fatalf("garbler holds %d label bytes, evaluator %d, want the same %d", len(g.labels), len(e.labels), want)
	}
	gl, el := &g.labels[0], &e.labels[0]
	round(small, small, big)
	if &g.labels[0] != gl || &e.labels[0] != el {
		t.Error("a round of circuits no larger than the last derived the labels again")
	}
}
