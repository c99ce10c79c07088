package core

import (
	"fmt"

	"abnn2/internal/gc"
	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// Non-linear layer protocols (paper section 4.2). Two variants:
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
// at ring width 32 about 10 MB of flight per chunk plus 16 MB of wire
// labels per worker, so tens of megabytes per party at Workers=1 even at
// batch size 128 on the 784->128 layer (8 chunks).
const reluChunk = 2048

// circuitCache memoizes the deterministic per-chunk circuits; building a
// 2048-neuron circuit is pure CPU and identical across chunks and runs.
type circuitCache struct {
	relu     map[cacheKey]*gc.Circuit
	sign     map[cacheKey]*gc.Circuit
	squares  map[cacheKey]*gc.Circuit
	pools    map[poolKey]*gc.Circuit
	argmaxes map[argmaxKey]*gc.Circuit
}

type cacheKey struct {
	bits uint
	n    int
}

func (cc *circuitCache) pool(k poolKey) *gc.Circuit {
	if cc.pools == nil {
		cc.pools = make(map[poolKey]*gc.Circuit)
	}
	if c, ok := cc.pools[k]; ok {
		return c
	}
	c := gc.BatchMaxPoolCircuit(k.bits, k.win, k.n, k.relu)
	cc.pools[k] = c
	return c
}

func (cc *circuitCache) argmax(k argmaxKey, build func() *gc.Circuit) *gc.Circuit {
	if cc.argmaxes == nil {
		cc.argmaxes = make(map[argmaxKey]*gc.Circuit)
	}
	if c, ok := cc.argmaxes[k]; ok {
		return c
	}
	c := build()
	cc.argmaxes[k] = c
	return c
}

func (cc *circuitCache) reluCircuit(bits uint, n int) *gc.Circuit {
	if cc.relu == nil {
		cc.relu = make(map[cacheKey]*gc.Circuit)
	}
	k := cacheKey{bits, n}
	if c, ok := cc.relu[k]; ok {
		return c
	}
	c := gc.BatchReLUCircuit(bits, n)
	cc.relu[k] = c
	return c
}

func (cc *circuitCache) signCircuit(bits uint, n int) *gc.Circuit {
	if cc.sign == nil {
		cc.sign = make(map[cacheKey]*gc.Circuit)
	}
	k := cacheKey{bits, n}
	if c, ok := cc.sign[k]; ok {
		return c
	}
	c := gc.BatchSignCircuit(bits, n)
	cc.sign[k] = c
	return c
}

// ClientNonlinear runs the client (garbler) side of activation layers.
type ClientNonlinear struct {
	rg      ring.Ring
	garb    *gc.Garbler
	conn    transport.Conn
	cache   circuitCache
	maskRng *prg.PRG // masks for output-hiding protocols (argmax)
}

// ServerNonlinear runs the server (evaluator) side.
type ServerNonlinear struct {
	rg    ring.Ring
	eval  *gc.Evaluator
	conn  transport.Conn
	cache circuitCache
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

// reluSpans splits n neurons into reluChunk-sized [start, end) spans.
func reluSpans(n int) [][2]int {
	var spans [][2]int
	for start := 0; start < n; start += reluChunk {
		end := start + reluChunk
		if end > n {
			end = n
		}
		spans = append(spans, [2]int{start, end})
	}
	return spans
}

// ReLUClient runs the client side over a share vector: y1 are the
// client's shares of the pre-activations, z1 the client's (pre-chosen)
// shares of the outputs. Long vectors are split into chunks of reluChunk
// neurons, one garbled circuit per chunk; the chunks run as one batch, so
// chunk k+1 garbles while chunk k is on the wire and the flights keep a
// fixed order.
func (c *ClientNonlinear) ReLUClient(variant ReLUVariant, y1, z1 ring.Vec) error {
	if len(y1) != len(z1) {
		return fmt.Errorf("core: relu share length mismatch %d vs %d", len(y1), len(z1))
	}
	if variant != ReLUGC && variant != ReLUOptimized {
		return fmt.Errorf("core: unknown ReLU variant %d", variant)
	}
	bits := c.rg.Bits()
	spans := reluSpans(len(y1))
	circs := make([]*gc.Circuit, len(spans))
	ins := make([][]byte, len(spans))
	for k, sp := range spans {
		n := sp[1] - sp[0]
		if variant == ReLUGC {
			circs[k] = c.cache.reluCircuit(bits, n)
			ins[k] = append(gc.VecToBits(y1[sp[0]:sp[1]], bits), gc.VecToBits(z1[sp[0]:sp[1]], bits)...)
		} else {
			circs[k] = c.cache.signCircuit(bits, n)
			ins[k] = gc.VecToBits(y1[sp[0]:sp[1]], bits)
		}
	}
	if err := c.garb.RunBatch(circs, ins); err != nil {
		return err
	}
	if variant == ReLUGC {
		return nil
	}
	// Optimized variant: receive the sign bits the server decoded, then
	// reshare — one round per chunk, in chunk order.
	for _, sp := range spans {
		n := sp[1] - sp[0]
		raw, err := c.conn.Recv()
		if err != nil {
			return fmt.Errorf("core: recv sign bits: %w", err)
		}
		if len(raw) != (n+7)/8 {
			return fmt.Errorf("core: sign bits are %d bytes, want %d", len(raw), (n+7)/8)
		}
		d := make(ring.Vec, n)
		for i := 0; i < n; i++ {
			if (raw[i/8]>>(uint(i)%8))&1 == 1 {
				d[i] = c.rg.Sub(y1[sp[0]+i], z1[sp[0]+i]) // positive: z0 = y0 + (y1 - z1)
			} else {
				d[i] = c.rg.Neg(z1[sp[0]+i]) // negative: z0 = -z1
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
	if variant != ReLUGC && variant != ReLUOptimized {
		return nil, fmt.Errorf("core: unknown ReLU variant %d", variant)
	}
	bits := s.rg.Bits()
	spans := reluSpans(len(y0))
	circs := make([]*gc.Circuit, len(spans))
	ins := make([][]byte, len(spans))
	for k, sp := range spans {
		n := sp[1] - sp[0]
		if variant == ReLUGC {
			circs[k] = s.cache.reluCircuit(bits, n)
		} else {
			circs[k] = s.cache.signCircuit(bits, n)
		}
		ins[k] = gc.VecToBits(y0[sp[0]:sp[1]], bits)
	}
	outs, err := s.eval.RunBatch(circs, ins)
	if err != nil {
		return nil, err
	}
	z0 := make(ring.Vec, 0, len(y0))
	if variant == ReLUGC {
		for k, sp := range spans {
			z0 = append(z0, gc.BitsToVec(outs[k], bits, sp[1]-sp[0])...)
		}
		return z0, nil
	}
	// Optimized variant: reveal signs and reshare per chunk, mirroring
	// the client's round order.
	for k, sp := range spans {
		n := sp[1] - sp[0]
		signs := outs[k]
		packed := make([]byte, (n+7)/8)
		for i, b := range signs {
			if b&1 == 1 {
				packed[i/8] |= 1 << (uint(i) % 8)
			}
		}
		if err := s.conn.Send(packed); err != nil {
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
		for i := 0; i < n; i++ {
			if signs[i]&1 == 1 {
				z0 = append(z0, s.rg.Add(y0[sp[0]+i], d[i]))
			} else {
				z0 = append(z0, d[i])
			}
		}
	}
	return z0, nil
}
