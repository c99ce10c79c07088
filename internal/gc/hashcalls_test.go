package gc

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"sync/atomic"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// countingBlock is the garbling cipher with its Encrypt calls counted.
type countingBlock struct {
	cipher.Block
	calls *atomic.Int64
}

func (c countingBlock) Encrypt(dst, src []byte) {
	c.calls.Add(1)
	c.Block.Encrypt(dst, src)
}

// countHashes routes the garbling hash through a counter for the rest of
// the test: the same key's crypto/aes cipher, wrapped, so that the
// permutation makes one counted Encrypt call per block. No test in this
// package runs in parallel, so swapping the package's permutation is
// safe.
func countHashes(t *testing.T) *atomic.Int64 {
	calls := new(atomic.Int64)
	blk, err := aes.NewCipher(mmoKey[:16])
	if err != nil {
		t.Fatal(err)
	}
	orig := mmo
	mmo = prg.WrapBlock(countingBlock{blk, calls})
	t.Cleanup(func() { mmo = orig })
	return calls
}

// TestHashCallsPerANDGate pins the kernels' hash cost: the garbler
// computes each of an AND gate's four hashes exactly once and the
// evaluator its two, XOR and INV gates hash nothing, and no worker count
// recomputes a hash. The label OTs' pads come from prg's oracle, which
// has its own cipher, so a RunBatch round counts the kernels alone.
func TestHashCallsPerANDGate(t *testing.T) {
	calls := countHashes(t)
	check := func(what string, perAND int, circs []*Circuit) {
		t.Helper()
		ands := 0
		for _, c := range circs {
			ands += c.NumAND()
		}
		if got, want := calls.Swap(0), int64(perAND*ands); got != want {
			t.Errorf("%s: %d hash calls for %d AND gates, want %d", what, got, ands, want)
		}
	}
	in := prg.New(prg.SeedFromInt(5))
	randomBits := func(n int) []byte {
		b := in.Bytes(n)
		for i := range b {
			b[i] &= 1
		}
		return b
	}
	for _, bits := range []uint{8, 32} {
		circs := []*Circuit{
			BatchReLUCircuit(bits, 3),
			BatchMaxPoolCircuit(bits, 4, 2, false),
			BatchMaxPoolCircuit(bits, 4, 2, true),
			BatchSignCircuit(bits, 3),
			BatchArgmaxCircuit(bits, 10, 4, 2),
		}
		gbits, ebits := make([][]byte, len(circs)), make([][]byte, len(circs))
		for i, c := range circs {
			gbits[i], ebits[i] = randomBits(c.NumGarbler), randomBits(c.NumEvaluator)
		}

		for i, c := range circs {
			g, err := Garble(c, gbits[i], prg.New(prg.SeedFromInt(uint64(i))))
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("bits %d circuit %d: Garble", bits, i), 4, circs[i:i+1])
			evalLabels := make([]Label, c.NumEvaluator)
			for j := range evalLabels {
				evalLabels[j] = g.EvalPairs[j][ebits[i][j]]
			}
			if _, err := Evaluate(c, g.Tables, g.GarblerLabels, evalLabels, g.Decode); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("bits %d circuit %d: Evaluate", bits, i), 2, circs[i:i+1])
		}

		for _, workers := range []int{1, 4} {
			ca, cb := transport.Pipe()
			g, e, gerr, eerr := newParties(ca, cb)
			if gerr != nil || eerr != nil {
				t.Fatalf("setup: %v %v", gerr, eerr)
			}
			g.SetWorkers(workers)
			calls.Store(0)
			// The evaluator only receives while the garbler's round runs,
			// so every hash counted is the garbler's.
			msgs := make([][]byte, len(circs))
			_, gerr, eerr = bothSides(
				func() error { return g.RunBatch(circs, gbits) },
				func() ([][]byte, error) {
					recv, err := e.labelRound(circs, ebits)
					for i := 0; err == nil && i < len(circs); i++ {
						msgs[i], err = recv(i)
					}
					return nil, err
				})
			ca.Close()
			if gerr != nil || eerr != nil {
				t.Fatalf("workers %d: %v %v", workers, gerr, eerr)
			}
			check(fmt.Sprintf("bits %d workers %d: RunBatch garbling", bits, workers), 4, circs)
			var s evaluating
			for i, c := range circs {
				out, err := s.flight(c, e.labels.upTo(c), msgs[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, plainEval(c, gbits[i], ebits[i])) {
					t.Fatalf("bits %d workers %d circuit %d: outputs differ from the clear", bits, workers, i)
				}
			}
			check(fmt.Sprintf("bits %d workers %d: RunBatch evaluation", bits, workers), 2, circs)
		}
	}
}
