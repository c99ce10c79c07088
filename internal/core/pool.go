package core

import (
	"fmt"
	"math/bits"

	"abnn2/internal/gc"
	"abnn2/internal/ring"
)

// Secure max pooling and secure argmax, built on the same garbled-circuit
// session as the ReLU protocols. Both go beyond the paper's FC-only
// evaluation: pooling enables CNNs (the workloads MiniONN/XONN evaluate)
// and is Algorithm 2 over windows of more than one value — gather, then
// the driver in relu.go; argmax lets the client learn only the predicted
// class instead of the full score vector.

// poolChunk bounds windows per garbled circuit, mirroring reluChunk.
const poolChunk = 512

// MaxPoolClient runs the client (garbler) side of non-overlapping max
// pooling. y1 is the client's share of the pre-pool values; windows[i]
// lists the y-indices of output window i; z1 is the client's pre-chosen
// share of the pooled outputs (one per window). withReLU fuses
// max(0, .) into the pool.
func (c *ClientNonlinear) MaxPoolClient(y1, z1 ring.Vec, windows [][]int, withReLU bool) error {
	if len(z1) != len(windows) {
		return fmt.Errorf("core: %d z1 shares for %d windows", len(z1), len(windows))
	}
	gathered, win, err := gatherWindows(y1, windows)
	if err != nil {
		return err
	}
	return c.garble(poolKind(withReLU), win, poolChunk, gathered, z1)
}

// MaxPoolServer runs the server (evaluator) side, returning its shares of
// the pooled outputs (one per window, in window order).
func (s *ServerNonlinear) MaxPoolServer(y0 ring.Vec, windows [][]int, withReLU bool) (ring.Vec, error) {
	gathered, win, err := gatherWindows(y0, windows)
	if err != nil {
		return nil, err
	}
	return s.evaluate(poolKind(withReLU), win, poolChunk, gathered)
}

func poolKind(withReLU bool) circuitKind {
	if withReLU {
		return kindReLU
	}
	return kindMax
}

// gatherWindows lays a share vector out window after window — the order
// the circuits read their inputs in — and returns the common window size.
func gatherWindows(y ring.Vec, windows [][]int) (ring.Vec, int, error) {
	if len(windows) == 0 || len(windows[0]) == 0 {
		return nil, 0, fmt.Errorf("core: empty window set")
	}
	win := len(windows[0])
	gathered := make(ring.Vec, 0, len(windows)*win)
	for i, w := range windows {
		if len(w) != win {
			return nil, 0, fmt.Errorf("core: window %d has %d elements, want %d", i, len(w), win)
		}
		for _, idx := range w {
			gathered = append(gathered, y[idx])
		}
	}
	return gathered, win, nil
}

// ArgmaxClient runs the client side of secure argmax over a batch of
// score-share columns (y1 laid out sample-major: sample k occupies
// y1[k*n:(k+1)*n]). The client learns the argmax of each sample; the
// server learns nothing (it forwards masked indices). The round is one
// circuit garbled straight from the garbler's stream, not a batch.
func (c *ClientNonlinear) ArgmaxClient(y1 ring.Vec, n, batch int) ([]int, error) {
	if len(y1) != n*batch {
		return nil, fmt.Errorf("core: argmax shares %d for %d x %d", len(y1), n, batch)
	}
	ib := int(indexBits(n))
	rbits := c.rg.Bits()
	// Fresh masks from the garbler's randomness pool: derive from a
	// dedicated PRG child so masks never repeat across calls.
	masks := make([]uint64, batch)
	in := gc.VecToBits(y1, rbits)
	for k := range masks {
		masks[k] = c.maskRng.Uint64() & (1<<ib - 1)
		in = append(in, gc.UintToBits(masks[k], uint(ib))...)
	}
	if err := c.garb.Run(c.cache.get(circuitKey{kindArgmax, rbits, n, batch}), in); err != nil {
		return nil, fmt.Errorf("core: argmax garble: %w", err)
	}
	raw, err := c.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("core: argmax recv: %w", err)
	}
	if want := (batch*ib + 7) / 8; len(raw) != want {
		return nil, fmt.Errorf("core: argmax message is %d bytes, want %d", len(raw), want)
	}
	out := make([]int, batch)
	for k := range out {
		var v uint64
		for i := 0; i < ib; i++ {
			v |= bitAt(raw, k*ib+i) << uint(i)
		}
		idx := int(v ^ masks[k])
		if idx >= n {
			return nil, fmt.Errorf("core: argmax index %d out of range (corrupt transcript)", idx)
		}
		out[k] = idx
	}
	return out, nil
}

// ArgmaxServer runs the server side: evaluate the circuit and forward the
// masked indices to the client.
func (s *ServerNonlinear) ArgmaxServer(y0 ring.Vec, n, batch int) error {
	if len(y0) != n*batch {
		return fmt.Errorf("core: argmax shares %d for %d x %d", len(y0), n, batch)
	}
	rbits := s.rg.Bits()
	out, err := s.eval.Run(s.cache.get(circuitKey{kindArgmax, rbits, n, batch}), gc.VecToBits(y0, rbits))
	if err != nil {
		return fmt.Errorf("core: argmax evaluate: %w", err)
	}
	if err := s.conn.Send(packBits(out)); err != nil {
		return fmt.Errorf("core: argmax send: %w", err)
	}
	return nil
}

// indexBits returns the index width for n candidates.
func indexBits(n int) uint {
	if n <= 1 {
		return 1
	}
	return uint(bits.Len(uint(n - 1)))
}
