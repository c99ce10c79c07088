package core

import (
	"fmt"

	"abnn2/internal/gc"
	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// Non-linear layer protocols (paper section 4.2). The paper states its
// protocol once, generically — Algorithm 2 run for f: reconstruct
// y = y0 + y1 inside a garbled circuit, apply f, hand the server
// f(y) - z1 — and so does this package: one garbler-side and one
// evaluator-side driver (garble, evaluate) run every batched GC layer, and
// ReLU and max pooling (pool.go) are the instances f = ReLU over windows
// of one value and f = ReLU or the identity over windows of k*k. A ReLU
// layer is a pool layer of window one, byte for byte.
//
// ReLU comes in two variants:
//
//   - ReLUGC: Algorithm 2 run for f = ReLU. The whole computation
//     y = y0+y1, z0 = max(0,y) - z1 happens inside one garbled circuit;
//     nothing about y leaks. ~3l AND gates per neuron.
//
//   - ReLUOptimized: the section 4.2 optimisation. The garbled circuit
//     only computes the comparison bit b = [y >= 0] (~l AND gates); the
//     reshare happens with one plain message per direction. The paper
//     accepts that b itself is revealed ("if so, then we reconstruct z
//     and reshare it; if not, we only need to reshare zero") — i.e. the
//     sign pattern of activations leaks to both parties. We implement it
//     faithfully and document the leakage; the ablation benchmark
//     quantifies what the leak buys.
//
// Roles: client garbles (it knows y1 and the fresh output share z1 chosen
// offline), server evaluates (inputs y0, learns z0).

// ReLUVariant selects the non-linear protocol.
type ReLUVariant int

const (
	// ReLUGC is the fully oblivious Algorithm-2 protocol.
	ReLUGC ReLUVariant = iota
	// ReLUOptimized is the section 4.2 sign-bit protocol (leaks signs).
	ReLUOptimized
)

func (v ReLUVariant) String() string {
	if v == ReLUOptimized {
		return "optimized"
	}
	return "gc"
}

// reluChunk bounds neurons per garbled circuit, one circuit per chunk.
// With gc's pipelined round that bounds the working set whatever the
// batch size: the garbler holds at most Workers+1 chunks garbled and
// unsent and the evaluator at most Workers+1 received and unevaluated —
// at ring width 32 about 5 MB of flight per chunk, plus one window
// group's body labels per worker (~30 KiB) and gc's columnsAhead label-OT
// blocks (512 KiB each), so tens of megabytes per party at Workers=1
// even at batch size 128 on the 784->128 layer (16 chunks). It also sets
// the round's latency: garbling a layer's first chunk waits for the
// evaluator's columns, which wait for its previous layer's last
// evaluation, so a layer pays one chunk's garbling and one's evaluation
// that nothing hides. At 1024 a Fig. 4 batch-32 layer is four chunks,
// columnsAhead of them, so still two direction flips. Like poolChunk it
// is a tuned bound, not a knob: it fixes the size and position of every
// flight.
const reluChunk = 1024

// circuitKind names what a garbled circuit computes over each window of
// reconstructed values. The first two are Algorithm 2 — max over the
// window, f, reshare — and differ in f only.
type circuitKind uint8

const (
	kindMax    circuitKind = iota // f = identity: plain max pooling
	kindReLU                      // f = ReLU: the ReLU layer (window of one) and the fused pool
	kindSign                      // the optimised ReLU's comparison bit; no reshare
	kindArgmax                    // masked index of the window's maximum; n samples of win scores
)

// circuit builds the circuit of n windows of win values: one window's
// body, so building it costs microseconds whatever n, and each round
// builds its own.
func circuit(kind circuitKind, bits uint, win, n int) *gc.Circuit {
	switch kind {
	case kindSign:
		return gc.BatchSignCircuit(bits, n)
	case kindArgmax:
		return gc.BatchArgmaxCircuit(bits, win, indexBits(win), n)
	case kindReLU:
		return gc.Algorithm2Circuit(bits, win, n, (*gc.Builder).ReLU)
	}
	return gc.Algorithm2Circuit(bits, win, n, nil)
}

// batch cuts one layer into its garbled-circuit batch: shares holds one
// party's input shares laid out window after window, at most chunk windows
// go into one circuit, and a circuit's input bits are its windows' shares
// followed — on the garbler's side of a reshare — by its slice of the
// output shares z1 (nil otherwise).
func batch(kind circuitKind, bits uint, win, chunk int, shares, z1 ring.Vec) (circs []*gc.Circuit, ins [][]byte) {
	for start, n := 0, len(shares)/win; start < n; start += chunk {
		end := min(start+chunk, n)
		in := gc.VecToBits(shares[start*win:end*win], bits)
		if z1 != nil {
			in = append(in, gc.VecToBits(z1[start:end], bits)...)
		}
		circs = append(circs, circuit(kind, bits, win, end-start))
		ins = append(ins, in)
	}
	return circs, ins
}

// ClientNonlinear runs the client (garbler) side of activation layers.
type ClientNonlinear struct {
	rg      ring.Ring
	garb    *gc.Garbler
	conn    transport.Conn
	maskRng *prg.PRG // masks for output-hiding protocols (argmax)
}

// ServerNonlinear runs the server (evaluator) side.
type ServerNonlinear struct {
	rg   ring.Ring
	eval *gc.Evaluator
	conn transport.Conn
}

// NewClientNonlinear sets up the garbler role (base OTs for label
// transfer happen here).
func NewClientNonlinear(conn transport.Conn, rg ring.Ring, session uint64, rng *prg.PRG) (*ClientNonlinear, error) {
	g, err := gc.NewGarbler(conn, session, rng)
	if err != nil {
		return nil, err
	}
	return &ClientNonlinear{rg: rg, garb: g, conn: conn, maskRng: rng.Child("argmax-masks")}, nil
}

// NewServerNonlinear sets up the evaluator role.
func NewServerNonlinear(conn transport.Conn, rg ring.Ring, session uint64, rng *prg.PRG) (*ServerNonlinear, error) {
	e, err := gc.NewEvaluator(conn, session, rng)
	if err != nil {
		return nil, err
	}
	return &ServerNonlinear{rg: rg, eval: e, conn: conn}, nil
}

// SetWorkers bounds the kernel parallelism of the GC session underneath
// (garbling and label OT). 0 means one worker per CPU.
func (c *ClientNonlinear) SetWorkers(n int) { c.garb.SetWorkers(n) }

// SetWorkers mirrors ClientNonlinear.SetWorkers.
func (s *ServerNonlinear) SetWorkers(n int) { s.eval.SetWorkers(n) }

// garble is the garbler's side of every batched GC layer. y1 holds the
// client's shares window after window and z1 its pre-chosen output shares,
// one per window (nil for the sign circuit, which reshares nothing). Long
// layers are split into chunks of `chunk` windows, one garbled circuit per
// chunk; the chunks run as one batch, so chunk k+1 garbles while chunk k
// is on the wire and the flights keep a fixed order.
func (c *ClientNonlinear) garble(kind circuitKind, win, chunk int, y1, z1 ring.Vec) error {
	return c.garb.RunBatch(batch(kind, c.rg.Bits(), win, chunk, y1, z1))
}

// evaluate is the evaluator's side, chunked as garble chunks. It returns
// one value per window: the server's share z0 for a reshare, the decoded
// comparison bit for the sign circuit.
func (s *ServerNonlinear) evaluate(kind circuitKind, win, chunk int, y0 ring.Vec) (ring.Vec, error) {
	outs, err := s.eval.RunBatch(batch(kind, s.rg.Bits(), win, chunk, y0, nil))
	if err != nil {
		return nil, err
	}
	n := len(y0) / win
	vals := make(ring.Vec, 0, n)
	for _, out := range outs {
		m := min(chunk, n-len(vals))
		vals = append(vals, gc.BitsToVec(out, uint(len(out)/m), m)...)
	}
	return vals, nil
}

// packBits packs one bit per element, least significant bit first: the
// form in which the evaluator forwards decoded bits (the optimised ReLU's
// signs, the argmax's masked indices) to the garbler.
func packBits[T byte | uint64](bits []T) []byte {
	packed := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		packed[i/8] |= byte(b&1) << (uint(i) % 8)
	}
	return packed
}

// bitAt reads bit i of a packBits vector.
func bitAt(packed []byte, i int) uint64 { return uint64(packed[i/8]>>(uint(i)%8)) & 1 }

// ReLUClient runs the client side over a share vector: y1 are the
// client's shares of the pre-activations, z1 the client's (pre-chosen)
// shares of the outputs.
func (c *ClientNonlinear) ReLUClient(variant ReLUVariant, y1, z1 ring.Vec) error {
	if len(y1) != len(z1) {
		return fmt.Errorf("core: relu share length mismatch %d vs %d", len(y1), len(z1))
	}
	if variant == ReLUGC {
		return c.garble(kindReLU, 1, reluChunk, y1, z1)
	}
	if variant != ReLUOptimized {
		return fmt.Errorf("core: unknown ReLU variant %d", variant)
	}
	if err := c.garble(kindSign, 1, reluChunk, y1, nil); err != nil {
		return err
	}
	// Receive the sign bits the server decoded, then reshare — one round
	// per chunk, in chunk order.
	for start := 0; start < len(y1); start += reluChunk {
		n := min(reluChunk, len(y1)-start)
		raw, err := c.conn.Recv()
		if err != nil {
			return fmt.Errorf("core: recv sign bits: %w", err)
		}
		if len(raw) != (n+7)/8 {
			return fmt.Errorf("core: sign bits are %d bytes, want %d", len(raw), (n+7)/8)
		}
		d := make(ring.Vec, n)
		for i := range d {
			if bitAt(raw, i) == 1 {
				d[i] = c.rg.Sub(y1[start+i], z1[start+i]) // positive: z0 = y0 + (y1 - z1)
			} else {
				d[i] = c.rg.Neg(z1[start+i]) // negative: z0 = -z1
			}
		}
		if err := c.conn.Send(c.rg.AppendVec(nil, d)); err != nil {
			return fmt.Errorf("core: send reshare: %w", err)
		}
	}
	return nil
}

// ReLUServer runs the server side over its share vector y0, returning its
// shares z0 of the activations. Chunking mirrors ReLUClient.
func (s *ServerNonlinear) ReLUServer(variant ReLUVariant, y0 ring.Vec) (ring.Vec, error) {
	if variant == ReLUGC {
		return s.evaluate(kindReLU, 1, reluChunk, y0)
	}
	if variant != ReLUOptimized {
		return nil, fmt.Errorf("core: unknown ReLU variant %d", variant)
	}
	signs, err := s.evaluate(kindSign, 1, reluChunk, y0)
	if err != nil {
		return nil, err
	}
	// Reveal signs and reshare per chunk, mirroring the client's round
	// order.
	z0 := make(ring.Vec, 0, len(y0))
	for start := 0; start < len(y0); start += reluChunk {
		n := min(reluChunk, len(y0)-start)
		if err := s.conn.Send(packBits(signs[start : start+n])); err != nil {
			return nil, fmt.Errorf("core: send sign bits: %w", err)
		}
		raw, err := s.conn.Recv()
		if err != nil {
			return nil, fmt.Errorf("core: recv reshare: %w", err)
		}
		d, rest, err := s.rg.DecodeVec(raw, n)
		if err != nil || len(rest) != 0 {
			return nil, fmt.Errorf("core: reshare message malformed: %v", err)
		}
		for i, di := range d {
			if signs[start+i] == 1 {
				di = s.rg.Add(y0[start+i], di)
			}
			z0 = append(z0, di)
		}
	}
	return z0, nil
}
