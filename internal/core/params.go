// Package core implements ABNN2's protocols: quantized matrix
// multiplication triplets from 1-out-of-N OT extension (paper section
// 4.1), the multi-batch and one-batch optimisations, the non-linear layer
// protocols (section 4.2), and the end-to-end two-party inference engine
// (section 3, Figure 2).
//
// Roles follow the paper: the server S holds the quantized model and acts
// as the OT-extension *receiver* (its weight fragments are the choices);
// the client C holds the activations' random shares and acts as the OT
// *sender*. For the garbled-circuit layers the client garbles and the
// server evaluates.
package core

import (
	"fmt"

	"abnn2/internal/nn"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/trace"
	"abnn2/internal/transport"
)

// Conn is the two-party channel every protocol in this package runs over.
type Conn = transport.Conn

// Params fixes the public protocol parameters both parties must agree on.
type Params struct {
	Ring   ring.Ring    // the share ring Z_2^l
	Scheme quant.Scheme // weight quantization / fragmentation scheme
	// Workers bounds the compute parallelism of the protocol kernels
	// (OT extension, garbling, triplet accumulation, matmul) on this
	// party. 0 means one worker per CPU. Purely local: the two parties
	// may use different values, and every value yields byte-identical
	// transcripts.
	Workers int
	// Trace records per-phase/per-layer protocol spans. Purely local
	// telemetry (the peer never observes it); nil disables tracing with
	// zero overhead.
	Trace *trace.Tracer
	// MiniONNBits sets the size of the Paillier key the client generates
	// when a per-layer Schedule routes a layer to the MiniONN backend; 0
	// means the baseline package default. Client-local: the server takes
	// the size off the key it receives, within paillier's modulus range.
	MiniONNBits int
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	if p.Ring.Bits() == 0 {
		return fmt.Errorf("core: ring not initialised")
	}
	if p.Scheme == nil {
		return fmt.Errorf("core: scheme not set")
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", p.Workers)
	}
	for i := 0; i < p.Scheme.Gamma(); i++ {
		if n := p.Scheme.FragmentN(i); n < 2 || n > 256 {
			return fmt.Errorf("core: fragment %d has N=%d, want [2,256]", i, n)
		}
	}
	return nil
}

// chunkOTs bounds how many OTs are packed into a single extension round /
// wire message; it caps peak memory and keeps frames far below the
// transport limit even at batch size 128.
const chunkOTs = 4096

// OfflineWindow is how many chunks the server's OT-extension producer may
// run ahead of the payloads it has been sent back (see generateServer):
// at most OfflineWindow `u` matrices are ever on the wire unanswered. The
// window has to cover the link's bandwidth-delay product plus the chunk
// being turned around, or the producer stalls on credit while the link
// idles. A chunk's u is chunkOTs x the layer's code width: 96 KiB at N = 4
// (192 columns), 128 KiB at the widest code. On the benchmark's link (24.3
// MB/s x 40 ms = 0.97 MB; the paper's other link, 9 MB/s x 72 ms, is 0.65
// MB) 8 chunks at N = 4 are 0.75 MiB in flight — under the product — and
// 12 are 1.125 MiB, which is where the measured wall goes flat (16 is no
// faster). The price is the memory the window pins per session:
// OfflineWindow x (u in flight + as many bytes of t rows queued) = 12 x 2
// x 96 KiB = 2.25 MiB at N = 4, 3 MiB at the widest code.
const OfflineWindow = 12

// OfflineFlights is the number of flights of an ABNN2 offline layer of
// numOTs OTs that a party has to wait out — what a link's latency
// multiplies: two per window of chunks, since the server sends a window
// ahead, not two per chunk. The wire carries 2*chunks messages either
// way. Priced alone, a layer pays for filling and draining the window;
// inside a run of consecutive ABNN2 layers the server extends straight
// on into the next layer, so summing this over a run over-counts the
// drains between its layers.
func OfflineFlights(numOTs int64) int {
	chunks := (numOTs + chunkOTs - 1) / chunkOTs
	return 2 * int((chunks+OfflineWindow-1)/OfflineWindow)
}

// MatShape describes a public matrix-multiplication shape: the server's
// m x n quantized matrix times the client's n x o share matrix.
type MatShape struct{ M, N, O int }

// ShapeAt is the matmul layer l lowers to at a batch size. Convolutions
// multiply the same weights across every output position, so their OT
// columns include the spatial positions — exactly the paper's
// multi-batch reuse, applied to space instead of (only) batch.
func ShapeAt(l nn.Shape, batch int) MatShape {
	return MatShape{M: l.Out, N: l.ColRows(), O: batch * l.Cols()}
}

// NumOTs returns the OT count gamma*m*n of the offline phase (Table 1).
func (p Params) NumOTs(sh MatShape) int {
	return p.Scheme.Gamma() * sh.M * sh.N
}

// fragValues precomputes, per fragment index, the signed contribution of
// every candidate, embedded in the ring. fragValues[i][t] =
// ring(Value(i,t)).
func (p Params) fragValues() [][]ring.Elem {
	out := make([][]ring.Elem, p.Scheme.Gamma())
	for i := range out {
		n := p.Scheme.FragmentN(i)
		vals := make([]ring.Elem, n)
		for t := 0; t < n; t++ {
			vals[t] = p.Ring.FromSigned(p.Scheme.Value(i, t))
		}
		out[i] = vals
	}
	return out
}
