package gc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"abnn2/internal/prg"
)

// matchReference garbles c with the kernel and with the frozen reference
// from the same seed and requires byte-equal tables, labels and decode
// bits, the same following PRG state, and — evaluating each garbling with
// each evaluator — equal outputs that agree with the circuit in the clear.
// MulMod appends a shift-and-add multiplier computing (a * c) mod
// 2^len(a), about 1.5*len^2 AND gates. No layer circuit multiplies — ABNN2
// keeps products in the OT domain — so it lives here, as the AND-heavy
// activation the kernel reference tests square with.
func (b *Builder) MulMod(a, c []int) []int {
	if len(a) != len(c) {
		panic("gc: multiplier operand width mismatch")
	}
	n := len(a)
	zero := b.XOR(a[0], a[0])
	acc := make([]int, n)
	for i := range acc {
		acc[i] = zero
	}
	for i := 0; i < n; i++ {
		// partial = (a AND c_i) << i, truncated to n bits.
		partial := make([]int, n)
		for k := 0; k < i; k++ {
			partial[k] = zero
		}
		for k := i; k < n; k++ {
			partial[k] = b.AND(c[i], a[k-i])
		}
		acc = b.AdderMod(acc, partial)
	}
	return acc
}

func matchReference(t testing.TB, c *Circuit, gBits, eBits []byte, seed uint64) {
	t.Helper()
	rngNew, rngRef := prg.New(prg.SeedFromInt(seed)), prg.New(prg.SeedFromInt(seed))
	got, err := Garble(c, gBits, rngNew)
	if err != nil {
		t.Fatalf("garble: %v", err)
	}
	want, err := referenceGarble(c, gBits, rngRef)
	if err != nil {
		t.Fatalf("reference garble: %v", err)
	}
	if !bytes.Equal(got.Tables, want.Tables) {
		t.Fatalf("tables differ from the reference (%d vs %d bytes)", len(got.Tables), len(want.Tables))
	}
	if len(got.GarblerLabels) != len(want.GarblerLabels) || len(got.EvalPairs) != len(want.EvalPairs) {
		t.Fatalf("label counts (%d,%d), reference (%d,%d)",
			len(got.GarblerLabels), len(got.EvalPairs), len(want.GarblerLabels), len(want.EvalPairs))
	}
	for i := range want.GarblerLabels {
		if got.GarblerLabels[i] != want.GarblerLabels[i] {
			t.Fatalf("garbler label %d differs from the reference", i)
		}
	}
	for i := range want.EvalPairs {
		if got.EvalPairs[i] != want.EvalPairs[i] {
			t.Fatalf("evaluator label pair %d differs from the reference", i)
		}
	}
	if !bytes.Equal(got.Decode, want.Decode) {
		t.Fatal("decode bits differ from the reference")
	}
	if a, b := rngNew.Uint64(), rngRef.Uint64(); a != b {
		t.Fatal("the PRG is left in a different state than the reference leaves it")
	}

	evalLabels := make([]Label, c.NumEvaluator)
	for i := range evalLabels {
		evalLabels[i] = got.EvalPairs[i][eBits[i]&1]
	}
	out, err := Evaluate(c, got.Tables, got.GarblerLabels, evalLabels, got.Decode)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	ref, err := referenceEvaluate(c, want.Tables, want.GarblerLabels, evalLabels, want.Decode)
	if err != nil {
		t.Fatalf("reference evaluate: %v", err)
	}
	if !bytes.Equal(out, ref) {
		t.Fatal("evaluated outputs differ from the reference evaluator's")
	}
	if plain := plainEval(c, gBits, eBits); !bytes.Equal(out, plain) {
		t.Fatal("evaluated outputs differ from the circuit in the clear")
	}
}

// TestKernelMatchesReference is the no-wire-change proof for the kernel:
// over every circuit family the engine garbles, at ring widths either
// side of the word boundaries and at one, a few and a chunk's worth of
// neurons, the four-hash word-wide kernel produces the reference's bytes.
// The squarer is quadratic in the width, so its 256-neuron case runs at
// width 8 only (at width 64 it is 2 M AND gates and 400 MB of gate list).
func TestKernelMatchesReference(t *testing.T) {
	square := func(b *Builder, y []int) []int { return b.MulMod(y, y) }
	families := []struct {
		name  string
		build func(bits uint, n int) *Circuit
	}{
		{"relu", BatchReLUCircuit},
		{"sign", BatchSignCircuit},
		{"maxpool", func(bits uint, n int) *Circuit { return BatchMaxPoolCircuit(bits, 4, n, false) }},
		{"maxpool-relu", func(bits uint, n int) *Circuit { return BatchMaxPoolCircuit(bits, 4, n, true) }},
		{"argmax", func(bits uint, n int) *Circuit { return BatchArgmaxCircuit(bits, 10, 4, n) }},
		{"square", func(bits uint, n int) *Circuit { return BatchFuncCircuit(bits, n, square) }},
	}
	seed := uint64(1)
	for _, fam := range families {
		for _, bits := range []uint{8, 32, 33, 64} {
			for _, n := range []int{1, 3, 256} {
				if fam.name == "square" && n == 256 && bits != 8 {
					continue
				}
				seed++
				t.Run(fmt.Sprintf("%s/bits%d/n%d", fam.name, bits, n), func(t *testing.T) {
					c := fam.build(bits, n)
					in := prg.New(prg.SeedFromInt(1000 + seed))
					gBits, eBits := in.Bytes(c.NumGarbler), in.Bytes(c.NumEvaluator)
					for i := range gBits {
						gBits[i] &= 1
					}
					for i := range eBits {
						eBits[i] &= 1
					}
					matchReference(t, c, gBits, eBits, seed)
				})
			}
		}
	}
}

// gateProgram decodes fuzzer bytes into a well-formed circuit: two bytes
// pick the input counts, then every three bytes are one gate (kind, and
// two operands taken modulo the wires that exist so far). Every gate
// output is a circuit output, so every wire's decode bit is compared.
func gateProgram(prog []byte) *Circuit {
	nG, nE := 1, 1
	if len(prog) >= 2 {
		nG, nE = 1+int(prog[0]%4), 1+int(prog[1]%4)
		prog = prog[2:]
	}
	b := NewBuilder()
	wires := append(b.GarblerInput(nG), b.EvaluatorInput(nE)...)
	for ; len(prog) >= 3 && len(wires) < 512; prog = prog[3:] {
		x, y := wires[int(prog[1])%len(wires)], wires[int(prog[2])%len(wires)]
		var w int
		switch prog[0] % 4 {
		case 0:
			w = b.XOR(x, y)
		case 1:
			w = b.AND(x, y)
		default: // two of four kinds: programs lean on INV
			w = b.NOT(x)
		}
		wires = append(wires, w)
		b.Output(w)
	}
	return b.Finish()
}

// FuzzGarbleMatchesReference holds the kernel to the reference over
// arbitrary gate lists, inputs and seeds, including the shapes no
// circuit constructor emits: INV chains, gates fed the same wire twice,
// AND gates on inverted and re-inverted wires. The input bytes double as
// the garbling seed.
func FuzzGarbleMatchesReference(f *testing.F) {
	// Three long programs: a chain of 150 INVs with ANDs across it, all
	// gate kinds interleaved, and ANDs of freshly inverted wires.
	invChain := []byte{3, 3}
	for i := 0; i < 150; i++ {
		invChain = append(invChain, 2, byte(i+7), 0) // invert the newest wire
	}
	for i := 0; i < 40; i++ {
		invChain = append(invChain, 1, byte(3*i), byte(5*i+1))
	}
	mixed := []byte{2, 1}
	for i := 0; i < 250; i++ {
		mixed = append(mixed, byte(i%4), byte(7*i+3), byte(11*i+5))
	}
	andOfInv := []byte{0, 0}
	for i := 0; i < 80; i++ {
		andOfInv = append(andOfInv, 3, byte(i), 0, 1, byte(2*i+1), byte(2*i+2), 0, byte(3*i), byte(3*i+1))
	}
	f.Add(invChain, []byte{0xA5, 0x3C})
	f.Add(mixed, []byte{0x01, 0xFE, 0x77, 0x10, 0x9B, 0x42, 0xC3, 0x5A, 0xE1})
	f.Add(andOfInv, []byte{0xFF})
	f.Add([]byte{3, 3}, []byte{})
	f.Add([]byte{0, 0, 1, 0, 1}, []byte{1, 1})
	f.Add([]byte{1, 2, 1, 0, 0, 0, 1, 1, 1, 3, 3, 1, 5, 4}, []byte{0xFF, 0x00}) // x AND x, x XOR x
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, prog, inputs []byte) {
		c := gateProgram(prog)
		bit := func(i int) byte {
			if len(inputs) == 0 {
				return 0
			}
			return (inputs[(i/8)%len(inputs)] >> (uint(i) % 8)) & 1
		}
		gBits, eBits := make([]byte, c.NumGarbler), make([]byte, c.NumEvaluator)
		for i := range gBits {
			gBits[i] = bit(i)
		}
		for i := range eBits {
			eBits[i] = bit(c.NumGarbler + i)
		}
		var seed [8]byte
		copy(seed[:], inputs)
		matchReference(t, c, gBits, eBits, binary.LittleEndian.Uint64(seed[:]))
	})
}
