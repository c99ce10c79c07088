package gc

import (
	"bytes"
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// fuzzEvaluator builds a real Evaluator (base OTs against a throwaway
// Garbler) and returns the peer conn for injecting the garbled-material
// flight. The drainer discards the evaluator's outgoing label-OT u
// matrices so the pipe never fills across iterations.
func fuzzEvaluator(f *testing.F) (*Evaluator, transport.Conn) {
	f.Helper()
	ca, cb := transport.Pipe()
	var (
		gerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, gerr = NewGarbler(cb, 99, prg.New(prg.SeedFromInt(1)))
	}()
	e, eerr := NewEvaluator(ca, 99, prg.New(prg.SeedFromInt(2)))
	wg.Wait()
	if gerr != nil || eerr != nil {
		f.Fatalf("setup: %v %v", gerr, eerr)
	}
	go func() {
		for {
			if _, err := cb.Recv(); err != nil {
				return
			}
		}
	}()
	return e, cb
}

// FuzzEvaluatorRun treats the garbled-material flight as attacker bytes.
// For BatchReLUCircuit(4, 2) the valid length is flightBytes: tables,
// decode bits and one label-OT ciphertext per evaluator input; every
// other length must error, and even a correctly-sized flight of garbage
// must evaluate (to garbage bits) without panicking.
func FuzzEvaluatorRun(f *testing.F) {
	e, peer := fuzzEvaluator(f)
	circ := BatchReLUCircuit(4, 2)
	want := flightBytes(circ)
	evalBits := make([]byte, circ.NumEvaluator)
	for i := range evalBits {
		evalBits[i] = byte(i) & 1
	}
	// A garbled flight whose ciphertexts were never padded: real tables
	// and decode bits, wrong evaluator labels.
	garbled := make([]byte, want)
	var s garbling
	var x inputLabels
	if err := s.flight(circ, make([]byte, circ.NumGarbler), x.upTo(circ), prg.New(prg.SeedFromInt(3)), nil,
		garbled, make([]byte, circ.NumEvaluator*2*LabelSize)); err != nil {
		f.Fatal(err)
	}
	f.Add(garbled)
	f.Add(make([]byte, want))
	f.Add(bytes.Repeat([]byte{0xFF}, want))
	f.Add(bytes.Repeat([]byte{0x80}, want))
	f.Add(make([]byte, want-1))
	f.Add(make([]byte, want+1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := peer.Send(data); err != nil {
			t.Skip("pipe closed")
		}
		e.Run(circ, evalBits)
	})
}

// FuzzEvaluate drives the pure evaluation function directly: arbitrary
// table bytes, label material carved from the fuzzer's second argument,
// and a decode vector. Evaluate validates every slice length itself, so
// no input may panic. The last seed is a real garbling: its tables and
// the derived garbler labels X_0 onwards.
func FuzzEvaluate(f *testing.F) {
	circ := BatchSignCircuit(8, 1)
	labels := make([]byte, circ.NumGarbler*LabelSize) // a distinct label for every garbler input
	for i := range labels {
		labels[i] = byte(7*i + 1)
	}
	f.Add(make([]byte, circ.TableBytes()), make([]byte, 16))
	f.Add(bytes.Repeat([]byte{0xFF}, circ.TableBytes()), labels)
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, 7), make([]byte, 3))
	garbled, err := Garble(circ, make([]byte, circ.NumGarbler), prg.New(prg.SeedFromInt(4)))
	if err != nil {
		f.Fatal(err)
	}
	var x inputLabels
	f.Add(garbled.Tables, x.upTo(circ))
	f.Fuzz(func(t *testing.T, tables, labelSrc []byte) {
		gl := make([]Label, circ.NumGarbler)
		el := make([]Label, circ.NumEvaluator)
		for i := range gl {
			for j := 0; j < LabelSize && i*LabelSize+j < len(labelSrc); j++ {
				gl[i][j] = labelSrc[i*LabelSize+j]
			}
		}
		decode := make([]byte, circ.numOutputs())
		Evaluate(circ, tables, gl, el, decode)
	})
}
