package gc

import (
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
// 2*kappa per AND + kappa per garbler input + kappa*2 per evaluator input
// + packed decode bits.
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
	wantGE := int64(circ.TableBytes() + circ.NumGarbler*LabelSize +
		(len(circ.Outputs)+7)/8 + circ.NumEvaluator*2*LabelSize)
	if s.BytesAB != wantGE {
		t.Errorf("garbler sent %d bytes, want %d", s.BytesAB, wantGE)
	}
	wantEG := int64(((circ.NumEvaluator + 7) &^ 7) * 128 / 8)
	if s.BytesBA != wantEG {
		t.Errorf("evaluator sent %d bytes, want %d", s.BytesBA, wantEG)
	}
}
