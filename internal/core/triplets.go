package core

import (
	"fmt"

	"abnn2/internal/otext"
	"abnn2/internal/par"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/trace"
)

// This file implements the offline phase: dot-product / matrix triplet
// generation (paper Algorithm 1 and sections 4.1.2-4.1.3).
//
// For a server matrix W (m x n, quantized) and client matrix R (n x o,
// uniform shares), the parties end with U (server) and V (client), both
// m x o, such that U + V = W * R mod 2^l.
//
// OT enumeration order is row-major over W, fragments innermost:
// (i, j, f) for i in [m], j in [n], f in [gamma]. Both parties derive the
// identical order from the public shape and scheme.

// ClientTriplets is the client-side triplet generator. It owns the
// OT-extension sender (KK13 instantiation), whose base OTs cover the code
// of the widest fragmentation scheme it has run so far: the session
// scheme's from set-up, more only if a plan re-fragments a layer into
// larger N (see widen). Every layer extends over the code of its own
// scheme, a prefix of those columns.
// When a per-layer Schedule routes layers to the baseline backends, it
// also lazily owns the matching baseline generators over the same
// connection, one slot per entry of the backend table (GenerateBaseline).
type ClientTriplets struct {
	params  Params
	ot      *otext.Sender
	rng     *prg.PRG
	vals    [][]ring.Elem
	session uint64

	altVals   map[string][][]ring.Elem // fragValues per override scheme
	baselines [numBackends]clientGenerator
}

// ServerTriplets is the server-side triplet generator (OT receiver),
// plus the lazily-created server sides of any scheduled baselines.
type ServerTriplets struct {
	params  Params
	ot      *otext.Receiver
	rng     *prg.PRG
	session uint64

	baselines [numBackends]serverGenerator
}

// schemeCode returns the KK13 code a layer fragmented under sc extends
// over: the one for its largest fragment, since one extension round
// covers OTs of every fragment. It is public protocol state, so both
// parties size every u matrix alike.
func schemeCode(sc quant.Scheme) otext.Code {
	n := 0
	for f := 0; f < sc.Gamma(); f++ {
		n = max(n, sc.FragmentN(f))
	}
	return otext.WalshHadamardCode(n)
}

// widestCode returns the widest code an ABNN2 layer of sched extends
// over under session scheme sc; a nil schedule runs every layer under sc.
func widestCode(sc quant.Scheme, sched Schedule) otext.Code {
	if sched == nil {
		return schemeCode(sc)
	}
	var widest otext.Code
	for _, ch := range sched {
		if ch.Backend != BackendABNN2 {
			continue
		}
		code := schemeCode(sc)
		if ch.Scheme != nil {
			code = schemeCode(ch.Scheme)
		}
		if code.WidthBits() > widest.WidthBits() {
			widest = code
		}
	}
	return widest
}

// NewClientTriplets performs base-OT setup for the client role: widening
// from no columns to the session scheme's code.
func NewClientTriplets(conn Conn, p Params, session uint64, rng *prg.PRG) (*ClientTriplets, error) {
	c, err := OpenClientTriplets(conn, p, session, rng)
	if err != nil {
		return nil, err
	}
	// Set-up is the first widening, on the one path (and under the one
	// span) any later one takes.
	if err := c.widen(schemeCode(p.Scheme)); err != nil {
		return nil, fmt.Errorf("core: client triplet setup: %w", err)
	}
	return c, nil
}

// OpenClientTriplets is NewClientTriplets short of its base OTs: a
// generator with no columns yet, which has sent nothing. OfflineCorrSched
// widens it to what its schedule's ABNN2 layers extend over and a baseline
// sets itself up at its first layer, so a run of baseline layers alone —
// the baselines' rows of the paper's tables, the matmul oracle — pays for
// its own set-up and no other; GenerateClient needs the columns there.
func OpenClientTriplets(conn Conn, p Params, session uint64, rng *prg.PRG) (*ClientTriplets, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ot, err := otext.NewSender(conn, otext.Code{}, session, rng)
	if err != nil {
		return nil, err
	}
	ot.SetWorkers(p.Workers)
	return &ClientTriplets{params: p, ot: ot, rng: rng, vals: p.fragValues(), session: session}, nil
}

// widen runs the base OTs for whatever columns code has beyond those the
// sender already holds. It talks to the peer, so it runs on the goroutine
// that owns the connection, before a batch's first layer (or at set-up),
// mirrored by the server's widen.
func (c *ClientTriplets) widen(code otext.Code) error {
	return widenSpan(c.params.Trace, code.WidthBits()-c.ot.Columns(), func() error { return c.ot.Widen(code, c.rng) })
}

// widenSpan runs one party's base OTs for missing columns under a
// "baseot" span, and nothing at all — no span, no flight — when none are
// missing.
func widenSpan(tr *trace.Tracer, missing int, baseOTs func() error) error {
	if missing <= 0 {
		return nil
	}
	sp := tr.Start("baseot").SetBatch(missing)
	err := baseOTs()
	sp.End(err)
	return err
}

// NewServerTripletsSeeded performs base-OT setup for the server role. The
// receiver's setup randomness is independent of any secret reuse, so a
// caller with nothing to pin draws it from a fresh OS seed; the engines and
// the transcript-determinism and golden-transcript tests (internal/testkit)
// pin both parties.
func NewServerTripletsSeeded(conn Conn, p Params, session uint64, rng *prg.PRG) (*ServerTriplets, error) {
	s, err := OpenServerTriplets(conn, p, session, rng)
	if err != nil {
		return nil, err
	}
	if err := s.widen(schemeCode(p.Scheme)); err != nil {
		return nil, fmt.Errorf("core: server triplet setup: %w", err)
	}
	return s, nil
}

// OpenServerTriplets mirrors OpenClientTriplets: no columns yet, nothing
// received.
func OpenServerTriplets(conn Conn, p Params, session uint64, rng *prg.PRG) (*ServerTriplets, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ot, err := otext.NewReceiver(conn, otext.Code{}, session, rng)
	if err != nil {
		return nil, err
	}
	ot.SetWorkers(p.Workers)
	return &ServerTriplets{params: p, ot: ot, rng: rng, session: session}, nil
}

// widen mirrors ClientTriplets.widen. It receives, so it must never run
// on the run-ahead producer, which shares the connection's receive side
// with the consumer.
func (s *ServerTriplets) widen(code otext.Code) error {
	return widenSpan(s.params.Trace, code.WidthBits()-s.ot.Columns(), func() error { return s.ot.Widen(code, s.rng) })
}

// schemeParams resolves an optional per-layer scheme override into the
// Params and fragment-value table the ABNN2 kernel runs under. Override
// tables are cached by scheme name; a nil or identical override is the
// fast path with zero allocation.
func (c *ClientTriplets) schemeParams(sc quant.Scheme) (Params, [][]ring.Elem) {
	if sc == nil || sc.Name() == c.params.Scheme.Name() {
		return c.params, c.vals
	}
	p := c.params
	p.Scheme = sc
	if c.altVals == nil {
		c.altVals = make(map[string][][]ring.Elem)
	}
	vals, ok := c.altVals[sc.Name()]
	if !ok {
		vals = p.fragValues()
		c.altVals[sc.Name()] = vals
	}
	return p, vals
}

// Mode selects the payload packaging of the offline phase.
type Mode int

const (
	// OneBatch is the section 4.1.3 correlated-OT variant: the candidate-0
	// payload is derived from the random-oracle pad itself, so only N-1
	// ciphertexts of l bits cross the wire per OT. Only valid for o = 1.
	OneBatch Mode = iota
	// MultiBatch is the section 4.1.2 variant: one OT per weight fragment
	// carries all o products in N ciphertexts of o*l bits each. At o = 1
	// it is the unoptimised Fig. 3 protocol (all N ciphertexts sent), which
	// is how the one-batch ablation runs its "naive-N" row.
	MultiBatch
)

func (m Mode) String() string {
	switch m {
	case OneBatch:
		return "one-batch"
	case MultiBatch:
		return "multi-batch"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ModeFor picks the paper's mode for a batch size: the C-OT variant for
// single predictions, multi-batch otherwise.
func ModeFor(o int) Mode {
	if o == 1 {
		return OneBatch
	}
	return MultiBatch
}

// GenerateClient runs the client side of the offline phase for shape sh
// with the client share matrix R (n x o). It returns V (m x o) such that
// the server's U satisfies U + V = W * R.
func (c *ClientTriplets) GenerateClient(sh MatShape, R *ring.Mat, mode Mode) (*ring.Mat, error) {
	return c.generateClient(c.params, c.vals, sh, R, mode)
}

// generateClient is GenerateClient under params, the session's or a
// per-layer fragmentation override's (a planner-chosen η/γ
// decomposition), with vals that scheme's fragment values. The layer
// extends over its own scheme's code; columns for it must be there (see
// widen).
func (c *ClientTriplets) generateClient(params Params, vals [][]ring.Elem, sh MatShape, R *ring.Mat, mode Mode) (*ring.Mat, error) {
	if err := checkShape(sh, mode); err != nil {
		return nil, err
	}
	if R.Rows != sh.N || R.Cols != sh.O {
		return nil, fmt.Errorf("core: R is %dx%d, want %dx%d", R.Rows, R.Cols, sh.N, sh.O)
	}
	if err := c.ot.Use(schemeCode(params.Scheme)); err != nil {
		return nil, fmt.Errorf("core: client extend: %w", err)
	}
	rg := params.Ring
	gamma := params.Scheme.Gamma()
	total := params.NumOTs(sh)
	V := ring.NewMat(sh.M, sh.O)
	elemBytes := rg.Bytes()
	padBytes := sh.O * elemBytes

	ot := 0 // global OT index
	for ot < total {
		chunk := total - ot
		if chunk > chunkOTs {
			chunk = chunkOTs
		}
		blk, err := c.ot.Extend(chunk)
		if err != nil {
			return nil, fmt.Errorf("core: client extend: %w", err)
		}
		// Every OT's ciphertext block has a public size, so workers can
		// write disjoint spans of the payload flight directly.
		offs := payloadOffsets(params, ot, chunk, mode, padBytes)
		payload := make([]byte, offs[chunk])
		// Pre-draw the per-OT masking randomness sequentially, in the
		// exact order the sequential protocol consumed it — seeded
		// transcripts stay byte-identical for every worker count.
		var masks ring.Vec
		if mode != OneBatch {
			masks = c.rng.Vec(rg, chunk*sh.O)
		}
		// Fragment x row accumulation: each worker sums its OT range
		// into a private partial of V, reduced below. Ring addition is
		// commutative, so the result is independent of scheduling.
		partials := make([]ring.Vec, par.NumChunks(params.Workers, chunk))
		par.Chunks(params.Workers, chunk, func(part, lo, hi int) {
			pv := make(ring.Vec, sh.M*sh.O)
			partials[part] = pv
			pV := &ring.Mat{Rows: sh.M, Cols: sh.O, Data: pv}
			pads := blk.NewDeriver()
			for local := lo; local < hi; local++ {
				g := ot + local
				i := g / (sh.N * gamma) // W row
				j := (g / gamma) % sh.N // W col
				f := g % gamma          // fragment
				n := params.Scheme.FragmentN(f)
				vrow := pV.Row(i)
				rrow := R.Row(j)
				// Each message is encoded straight into its span of the
				// payload flight and the pad XORed over it in place.
				out := payload[offs[local]:offs[local+1]]
				pads.Seek(local)
				if mode == OneBatch {
					// s := pad(0); V accumulates s; ciphertexts for t>=1 are
					// (Value(t)*r - s) XOR pad(t).
					var pad0 [8]byte
					pads.PadInto(0, pad0[:])
					s := rg.FromBytesFull(pad0[:])
					vrow[0] = rg.Add(vrow[0], s)
					for t := 1; t < n; t++ {
						span := out[(t-1)*elemBytes : t*elemBytes]
						rg.PutElem(span, rg.Sub(rg.Mul(vals[f][t], rrow[0]), s))
						pads.XORPad(t, span)
					}
					continue
				}
				// One OT carries all o columns:
				// fresh random s_k per column, all N ciphertexts sent,
				// payload_t = concat_k (Value(t)*r_jk - s_k).
				ss := masks[local*sh.O : (local+1)*sh.O]
				rg.AddVecInPlace(vrow, ss)
				for t := 0; t < n; t++ {
					span := out[t*padBytes : (t+1)*padBytes]
					for k := range ss {
						rg.PutElem(span[k*elemBytes:], rg.Sub(rg.Mul(vals[f][t], rrow[k]), ss[k]))
					}
					pads.XORPad(t, span)
				}
			}
		})
		for _, pv := range partials {
			rg.AddVecInPlace(V.Data, pv)
		}
		if err := c.ot.Conn().Send(payload); err != nil {
			return nil, fmt.Errorf("core: client send payload: %w", err)
		}
		ot += chunk
	}
	return V, nil
}

// payloadOffsets returns the chunk+1 prefix offsets of each OT's
// ciphertext block inside one payload flight, for the chunk starting at
// global OT index base. Sizes depend only on public data (mode and the
// fragment schedule), so both parties — and every worker — compute the
// identical layout.
func payloadOffsets(p Params, base, chunk int, mode Mode, padBytes int) []int {
	gamma := p.Scheme.Gamma()
	offs := make([]int, chunk+1)
	for local := 0; local < chunk; local++ {
		n := p.Scheme.FragmentN((base + local) % gamma)
		if mode == OneBatch {
			n-- // candidate 0 is the pad itself
		}
		offs[local+1] = offs[local] + n*padBytes
	}
	return offs
}

// GenerateServer runs the server side for quantized weights W (m x n,
// row-major int64). It returns U (m x o).
func (s *ServerTriplets) GenerateServer(sh MatShape, W []int64, mode Mode) (*ring.Mat, error) {
	us, err := s.generateServer([]serverLayer{{params: s.params, sh: sh, W: W, mode: mode}}, func() {})
	if err != nil {
		return nil, err
	}
	return us[0], nil
}

// serverLayer is one layer of a run: its shape, weights and payload
// mode, under params — the session's, or a per-layer fragmentation
// override's.
type serverLayer struct {
	params Params
	sh     MatShape
	W      []int64
	mode   Mode
}

// chunks is the number of extension rounds the layer is cut into.
func (l serverLayer) chunks() int { return (l.params.NumOTs(l.sh) + chunkOTs - 1) / chunkOTs }

// generateServer is the server side of the offline phase for a run of
// consecutive ABNN2 layers, pipelined on one par.Ahead over the run's
// flat chunk sequence: a producer goroutine decomposes each chunk's
// choices and runs Extend — which sends the chunk's u matrix — for up to
// OfflineWindow chunks that are extended but not yet decoded, while this
// goroutine receives payload k and decodes it against the queued block.
// u_{k+1} depends on nothing the client sends, in the next layer no more
// than in this one, so the only thing bounding the run-ahead is the
// window: the producer goes straight on into layer L+1 while layer L's
// last payloads are still on their way back, and a run fills and drains
// the window once, not once per layer. The client is a plain reactive
// loop (recv u_k, send payload k), so on a link with latency the client's
// replies to chunks k+1.. are already in flight while chunk k is decoded,
// instead of one round trip per chunk. Each party's send order and bytes
// are those of the strict ping-pong, so seeded transcripts are unchanged.
//
// layerDone runs on this goroutine each time a layer's last chunk has
// been decoded; the returned shares are in run order. On an error the
// layer that failed is the one after the last layerDone.
//
// The producer never outlives the call, and a panic inside Extend
// resurfaces here, on the goroutine the session guard watches, as a
// *par.ChunkPanic: both are par.Ahead's contract. The producer only ever
// sends: columns a layer's code lacks are an error from Use, not a reason
// to widen here (see widen).
func (s *ServerTriplets) generateServer(run []serverLayer, layerDone func()) ([]*ring.Mat, error) {
	// first[k] is the flat index of layer k's first chunk.
	first := make([]int, len(run)+1)
	for k, l := range run {
		if err := checkShape(l.sh, l.mode); err != nil {
			return nil, err
		}
		if len(l.W) != l.sh.M*l.sh.N {
			return nil, fmt.Errorf("core: W has %d elements, want %d", len(l.W), l.sh.M*l.sh.N)
		}
		first[k+1] = first[k] + l.chunks()
	}
	us := make([]*ring.Mat, len(run))

	// The producer's view of the run: the layer it is in and that
	// layer's decomposed weights. Only the producer goroutine touches it.
	var (
		pk      = -1
		choices [][]int
	)
	extend := func(_, i int) (*otext.ReceiverBlock, error) {
		for pk < 0 || i >= first[pk+1] {
			pk++
			var err error
			if choices, err = quant.DecomposeAll(run[pk].params.Scheme, run[pk].W); err != nil {
				return nil, err
			}
			if err := s.ot.Use(schemeCode(run[pk].params.Scheme)); err != nil {
				return nil, fmt.Errorf("core: server extend: %w", err)
			}
		}
		params, sh := run[pk].params, run[pk].sh
		gamma := params.Scheme.Gamma()
		ot := (i - first[pk]) * chunkOTs
		cs := make([]int, min(params.NumOTs(sh)-ot, chunkOTs))
		for local := range cs {
			g := ot + local
			cs[local] = choices[g/gamma][g%gamma]
		}
		blk, err := s.ot.Extend(cs)
		if err != nil {
			return nil, fmt.Errorf("core: server extend: %w", err)
		}
		return blk, nil
	}
	ck := 0 // the consumer's layer
	decode := func(i int, blk *otext.ReceiverBlock) error {
		params, sh, mode := run[ck].params, run[ck].sh, run[ck].mode
		if us[ck] == nil {
			us[ck] = ring.NewMat(sh.M, sh.O)
		}
		U := us[ck]
		rg := params.Ring
		gamma := params.Scheme.Gamma()
		elemBytes := rg.Bytes()
		padBytes := sh.O * elemBytes
		ot := (i - first[ck]) * chunkOTs
		chunk := blk.Count()
		payload, err := s.ot.Conn().Recv()
		if err != nil {
			return fmt.Errorf("core: server recv payload: %w", err)
		}
		offs := payloadOffsets(params, ot, chunk, mode, padBytes)
		if len(payload) != offs[chunk] {
			return fmt.Errorf("core: payload is %d bytes, want %d", len(payload), offs[chunk])
		}
		// Mirror of the client kernel: workers decode disjoint payload
		// spans into private partials of U, reduced below.
		partials := make([]ring.Vec, par.NumChunks(params.Workers, chunk))
		par.Chunks(params.Workers, chunk, func(part, lo, hi int) {
			pu := make(ring.Vec, sh.M*sh.O)
			partials[part] = pu
			pU := &ring.Mat{Rows: sh.M, Cols: sh.O, Data: pu}
			pads := blk.NewDeriver()
			buf := make([]byte, padBytes)
			for local := lo; local < hi; local++ {
				g := ot + local
				i := g / (sh.N * gamma)
				w := blk.Choice(local)
				urow := pU.Row(i)
				ct := payload[offs[local]:offs[local+1]]
				pads.Seek(local)
				if mode == OneBatch {
					if w == 0 {
						// Output -s where s = pad(0); Value(0)*r = 0.
						var pad0 [8]byte
						pads.PadInto(pad0[:])
						urow[0] = rg.Sub(urow[0], rg.FromBytesFull(pad0[:]))
						continue
					}
					w-- // candidate 0 has no ciphertext on the wire
				}
				// Decrypt the chosen ciphertext in scratch: the received
				// flight is left as it arrived.
				copy(buf, ct[w*padBytes:(w+1)*padBytes])
				pads.XORPad(buf)
				for k := range urow {
					urow[k] = rg.Add(urow[k], rg.GetElem(buf[k*elemBytes:]))
				}
			}
		})
		for _, pu := range partials {
			rg.AddVecInPlace(U.Data, pu)
		}
		if i+1 == first[ck+1] {
			// U now holds sum(Value*r - s); V holds sum(s): U + V = W*R.
			layerDone()
			ck++
		}
		return nil
	}
	if err := par.Ahead(1, OfflineWindow, first[len(run)], extend, decode); err != nil {
		return nil, err
	}
	return us, nil
}

func checkShape(sh MatShape, mode Mode) error {
	if sh.M <= 0 || sh.N <= 0 || sh.O <= 0 {
		return fmt.Errorf("core: invalid shape %+v", sh)
	}
	if mode == OneBatch && sh.O != 1 {
		return fmt.Errorf("core: %v mode needs o=1, got o=%d", mode, sh.O)
	}
	return nil
}
