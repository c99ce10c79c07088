package baseline

import (
	"fmt"

	"abnn2/internal/gc"
	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// XONN-style secure binary-network inference (USENIX Security'19): both
// weights AND activations are binary, so every linear layer collapses to
// XNOR + popcount and the entire network evaluates inside one garbled
// circuit — no OT-based arithmetic at all. This is the GC-only point in
// the design space the paper positions ABNN2 against (ABNN2 quantizes
// weights but keeps full-precision activations).
//
// Roles: the server garbles (its weight bits are garbler inputs), the
// client evaluates (its binarized input is transferred by OT) and learns
// the output popcount scores directly.

// BNN is a plaintext binary network: weights in {-1,+1} encoded as bits
// (1 = +1), activations binarized by sign. Layer l maps n_l bits to
// n_{l+1} bits via XNOR-popcount threshold; the last layer outputs raw
// popcount scores.
type BNN struct {
	Sizes   []int    // layer widths, Sizes[0] = input bits
	Weights [][]byte // Weights[l][o*in+i] in {0,1}
}

// NewBNN builds a BNN with the given layer sizes and weight bits supplied
// by rng (callers binarizing a trained float model fill Weights
// themselves).
func NewBNN(rng *prg.PRG, sizes ...int) *BNN {
	if len(sizes) < 2 {
		panic("baseline: BNN needs at least two layer sizes")
	}
	b := &BNN{Sizes: sizes}
	for l := 0; l+1 < len(sizes); l++ {
		w := make([]byte, sizes[l+1]*sizes[l])
		for i := range w {
			w[i] = byte(rng.Intn(2))
		}
		b.Weights = append(b.Weights, w)
	}
	return b
}

// Forward evaluates the BNN in the clear: returns the last layer's
// popcount scores. Input bits must have length Sizes[0].
func (b *BNN) Forward(input []byte) []int {
	x := input
	for l := 0; l+1 < len(b.Sizes); l++ {
		in, out := b.Sizes[l], b.Sizes[l+1]
		next := make([]byte, out)
		scores := make([]int, out)
		for o := 0; o < out; o++ {
			pop := 0
			row := b.Weights[l][o*in : (o+1)*in]
			for i, w := range row {
				if w == x[i]&1 {
					pop++ // XNOR
				}
			}
			scores[o] = pop
			if 2*pop > in {
				next[o] = 1
			}
		}
		if l+2 == len(b.Sizes) {
			return scores
		}
		x = next
	}
	panic("unreachable")
}

// Predict returns the argmax class.
func (b *BNN) Predict(input []byte) int {
	scores := b.Forward(input)
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	return best
}

// Circuit builds the whole-network garbled circuit: garbler inputs are
// all weight bits (layer by layer, row-major), evaluator inputs the
// binarized feature bits, outputs the final layer's popcount words.
func (b *BNN) Circuit() *gc.Circuit {
	bld := gc.NewBuilder()
	var wWires [][]int
	for l := 0; l+1 < len(b.Sizes); l++ {
		wWires = append(wWires, bld.GarblerInput(b.Sizes[l+1]*b.Sizes[l]))
	}
	x := bld.EvaluatorInput(b.Sizes[0])
	for l := 0; l+1 < len(b.Sizes); l++ {
		in, out := b.Sizes[l], b.Sizes[l+1]
		next := make([]int, out)
		for o := 0; o < out; o++ {
			xnors := make([]int, in)
			for i := 0; i < in; i++ {
				xnors[i] = bld.NOT(bld.XOR(wWires[l][o*in+i], x[i]))
			}
			pop := bld.PopCount(xnors)
			if l+2 == len(b.Sizes) {
				bld.Output(pop...)
			} else {
				next[o] = bld.GreaterConst(pop, uint64(in)/2)
			}
		}
		x = next
	}
	return bld.Finish()
}

// scoreBits returns the output word width of the final layer popcounts.
func (b *BNN) scoreBits() int {
	n := b.Sizes[len(b.Sizes)-2]
	bits := 1
	for (1 << bits) < n+1 {
		bits++
	}
	return bits
}

// XONNServe runs the server (garbler) side for one inference.
func XONNServe(conn transport.Conn, b *BNN, session uint64, rng *prg.PRG) error {
	g, err := gc.NewGarbler(conn, session, rng)
	if err != nil {
		return fmt.Errorf("baseline: xonn garbler: %w", err)
	}
	circ := b.Circuit()
	var wbits []byte
	for _, layer := range b.Weights {
		wbits = append(wbits, layer...)
	}
	return g.Run(circ, wbits)
}

// XONNQuery runs the client (evaluator) side: input are the binarized
// features; returns the output scores.
func XONNQuery(conn transport.Conn, b *BNN, input []byte, session uint64, rng *prg.PRG) ([]int, error) {
	if len(input) != b.Sizes[0] {
		return nil, fmt.Errorf("baseline: input has %d bits, want %d", len(input), b.Sizes[0])
	}
	e, err := gc.NewEvaluator(conn, session, rng)
	if err != nil {
		return nil, fmt.Errorf("baseline: xonn evaluator: %w", err)
	}
	circ := b.Circuit()
	out, err := e.Run(circ, input)
	if err != nil {
		return nil, err
	}
	sb := b.scoreBits()
	classes := b.Sizes[len(b.Sizes)-1]
	scores := make([]int, classes)
	for o := 0; o < classes; o++ {
		scores[o] = int(gc.BitsToUint(out[o*sb : (o+1)*sb]))
	}
	return scores, nil
}
