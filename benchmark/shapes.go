package main

import "abnn2"

// Engine constants the replay mirrors so that it calls each layer at the
// sizes a real request uses. They are public protocol behaviour (they
// fix message sizes), stated in DESIGN.md.
const (
	otChunk       = 4096 // OTs per extension round and payload flight
	reluChunk     = 2048 // neurons per garbled ReLU circuit
	poolChunk     = 512  // windows per garbled max-pool circuit
	codeWidthBits = 256  // Walsh-Hadamard code width of the triplet OTs
)

// layerShape is what one network layer asks of the protocol layers for
// one request.
type layerShape struct {
	M, N, O int // server's M x N weights times the client's N x O shares
	OTs     int // gamma * M * N, independent of the batch
	// Exactly one of the two is non-zero on a layer with an activation.
	ReLUNeurons int
	PoolWindows int
	PoolWin     int  // values per pooling window
	PoolReLU    bool // ReLU fused into the pool circuit
}

// requestShape is the work of one request, derived from public data only.
type requestShape struct {
	Batch   int
	FragN   []int // candidates per weight fragment; its length is gamma
	Layers  []layerShape
	ArgmaxN int // classes entering the private argmax, 0 for a plain finish
}

// deriveShapes reads the request's work off the public architecture.
func deriveShapes(arch abnn2.Arch, fragN []int, batch int, private bool) requestShape {
	rs := requestShape{Batch: batch, FragN: fragN}
	for _, l := range arch.Layers {
		ls := layerShape{M: l.Out, N: l.ColRows(), O: l.Cols() * batch}
		ls.OTs = len(fragN) * ls.M * ls.N
		switch {
		case l.Pool != nil:
			ls.PoolWin = l.Pool.K * l.Pool.K
			ls.PoolWindows = l.OutputSize() * batch
			ls.PoolReLU = l.ReLU
		case l.ReLU:
			ls.ReLUNeurons = l.OutputSize() * batch
		}
		rs.Layers = append(rs.Layers, ls)
	}
	if private {
		rs.ArgmaxN = arch.OutputSize()
	}
	return rs
}

// ots returns the request's OT count and how many of them run in
// multi-batch mode (a layer with more than one share column).
func (rs requestShape) ots() (total, multiBatch int) {
	for _, l := range rs.Layers {
		total += l.OTs
		if l.O > 1 {
			multiBatch += l.OTs
		}
	}
	return total, multiBatch
}

// maxFragN is the largest 1-out-of-N the scheme uses.
func (rs requestShape) maxFragN() int {
	n := 0
	for _, f := range rs.FragN {
		if f > n {
			n = f
		}
	}
	return n
}

// oracleCalls counts pad derivations: the OT sender derives one pad per
// candidate, the receiver one per OT.
func (rs requestShape) oracleCalls() int {
	calls := 0
	for _, l := range rs.Layers {
		for _, n := range rs.FragN {
			calls += l.M * l.N * (n + 1)
		}
	}
	return calls
}

// extendRounds lists the OT count of every extension round of the
// request: each layer's OTs in chunks of otChunk.
func (rs requestShape) extendRounds() []int {
	var rounds []int
	for _, l := range rs.Layers {
		for left := l.OTs; left > 0; left -= otChunk {
			rounds = append(rounds, min(left, otChunk))
		}
	}
	return rounds
}

// activations returns how many values pass through a garbled ReLU and
// how many through a garbled max-pool.
func (rs requestShape) activations() (relu, pooled int) {
	for _, l := range rs.Layers {
		relu += l.ReLUNeurons
		pooled += l.PoolWindows * l.PoolWin
	}
	return relu, pooled
}
