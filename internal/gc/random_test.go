package gc

import (
	"math/rand"
	"testing"

	"abnn2/internal/prg"
)

// plainEval evaluates a circuit in the clear, the differential oracle for
// the garbling scheme.
// OR is random-circuit material: a OR c = NOT(NOT a AND NOT c), one AND
// gate. No layer circuit uses it.
func (b *Builder) OR(a, c int) int {
	return b.NOT(b.AND(b.NOT(a), b.NOT(c)))
}

func plainEval(c *Circuit, gBits, eBits []byte) []byte {
	c = expand(c)
	wires := make([]byte, c.NumWires)
	copy(wires, gBits)
	copy(wires[c.NumGarbler:], eBits)
	for _, g := range c.Gates {
		switch g.Kind {
		case GateXOR:
			wires[g.Out] = wires[g.A] ^ wires[g.B]
		case GateAND:
			wires[g.Out] = wires[g.A] & wires[g.B]
		case GateINV:
			wires[g.Out] = wires[g.A] ^ 1
		}
	}
	out := make([]byte, len(c.Outputs))
	for i, w := range c.Outputs {
		out[i] = wires[w]
	}
	return out
}

// randomCircuit builds a random DAG circuit with the given gate count.
func randomCircuit(rng *rand.Rand, nG, nE, gates int) *Circuit {
	b := NewBuilder()
	g := b.GarblerInput(nG)
	e := b.EvaluatorInput(nE)
	wires := append(append([]int{}, g...), e...)
	for i := 0; i < gates; i++ {
		a := wires[rng.Intn(len(wires))]
		c := wires[rng.Intn(len(wires))]
		var w int
		switch rng.Intn(4) {
		case 0:
			w = b.XOR(a, c)
		case 1:
			w = b.AND(a, c)
		case 2:
			w = b.NOT(a)
		case 3:
			w = b.OR(a, c)
		}
		wires = append(wires, w)
	}
	// Outputs: a handful of random wires including the last.
	for i := 0; i < 5; i++ {
		b.Output(wires[rng.Intn(len(wires))])
	}
	b.Output(wires[len(wires)-1])
	return b.Finish()
}

// Differential fuzz: garbled evaluation must match plaintext evaluation
// on random circuits and random inputs.
func TestGarbleMatchesPlainOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 40; trial++ {
		nG := 1 + rng.Intn(6)
		nE := 1 + rng.Intn(6)
		circ := randomCircuit(rng, nG, nE, 10+rng.Intn(60))
		for rep := 0; rep < 4; rep++ {
			gBits := make([]byte, nG)
			eBits := make([]byte, nE)
			for i := range gBits {
				gBits[i] = byte(rng.Intn(2))
			}
			for i := range eBits {
				eBits[i] = byte(rng.Intn(2))
			}
			want := plainEval(circ, gBits, eBits)
			garbled, err := Garble(circ, gBits, prg.New(prg.SeedFromInt(uint64(trial*10+rep))))
			if err != nil {
				t.Fatalf("trial %d: garble: %v", trial, err)
			}
			evalLabels := make([]Label, nE)
			for i := range evalLabels {
				evalLabels[i] = garbled.EvalPairs[i][eBits[i]]
			}
			got, err := Evaluate(circ, garbled.Tables, garbled.GarblerLabels, evalLabels, garbled.Decode)
			if err != nil {
				t.Fatalf("trial %d: evaluate: %v", trial, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d rep %d output %d: garbled %d, plain %d", trial, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// Corrupting every garbled table must corrupt the output — sanity that
// the evaluator actually uses the tables. (A single flipped ciphertext
// can legitimately be a no-op: half-gates apply each ciphertext only when
// the corresponding active label's permute bit is 1.)
func TestCorruptTablesChangeOutput(t *testing.T) {
	circ := BatchReLUCircuit(16, 2)
	gBits := make([]byte, circ.NumGarbler)
	for i := range gBits {
		gBits[i] = byte(i % 2)
	}
	garbled, err := Garble(circ, gBits, prg.New(prg.SeedFromInt(7)))
	if err != nil {
		t.Fatal(err)
	}
	evalLabels := make([]Label, circ.NumEvaluator)
	for i := range evalLabels {
		evalLabels[i] = garbled.EvalPairs[i][i%2]
	}
	clean, err := Evaluate(circ, garbled.Tables, garbled.GarblerLabels, evalLabels, garbled.Decode)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte{}, garbled.Tables...)
	for i := range corrupt {
		corrupt[i] ^= 0xA7
	}
	dirty, err := Evaluate(circ, corrupt, garbled.GarblerLabels, evalLabels, garbled.Decode)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range clean {
		if clean[i] != dirty[i] {
			same = false
		}
	}
	if same {
		t.Error("corrupting all garbled tables left all outputs unchanged")
	}
}
