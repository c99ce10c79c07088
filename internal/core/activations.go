package core

import (
	"fmt"

	"abnn2/internal/ring"
)

// Square activation: Algorithm 2 with f(y) = y^2 mod 2^l, the activation
// CryptoNets-style networks use when comparisons are too expensive for
// the underlying cryptosystem. Included to demonstrate that the paper's
// generic non-linear protocol (Algorithm 2, gc.Algorithm2Circuit) supports
// arbitrary activations — and to quantify why ABNN2 is right to keep
// multiplications out of GC: a squarer costs ~1.5*l^2 AND gates per neuron
// against ReLU's ~3*l.

// squareChunk bounds neurons per squaring circuit (each neuron is l^2
// scale, so chunks are much smaller than ReLU's).
const squareChunk = 256

// SquareClient runs the client (garbler) side of z = y^2 - z1 resharing.
func (c *ClientNonlinear) SquareClient(y1, z1 ring.Vec) error {
	if len(y1) != len(z1) {
		return fmt.Errorf("core: square share length mismatch %d vs %d", len(y1), len(z1))
	}
	return c.garble(kindSquare, 1, squareChunk, y1, z1)
}

// SquareServer runs the server (evaluator) side, returning its shares of
// the squared activations.
func (s *ServerNonlinear) SquareServer(y0 ring.Vec) (ring.Vec, error) {
	return s.evaluate(kindSquare, 1, squareChunk, y0)
}
