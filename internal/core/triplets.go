package core

import (
	"crypto/subtle"
	"fmt"
	"slices"

	"abnn2/internal/baseline"
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
// scheme, a prefix of those columns; so does a SecureML or QUOTIENT
// layer, whose N = 2 code is a prefix of every code.
// When a per-layer Schedule routes a layer to MiniONN, the one backend
// that runs no triplets, it also lazily owns MiniONN's client over the
// same connection (GenerateLayer).
type ClientTriplets struct {
	params  Params
	ot      *otext.Sender
	rng     *prg.PRG
	vals    [][]ring.Elem
	payload []byte // the payload flight, reused across rounds
	parts   workerScratch

	altVals map[string][][]ring.Elem // fragValues per override scheme
	minionn *baseline.MiniONNClient
}

// ServerTriplets is the server-side triplet generator (OT receiver),
// plus the lazily-created server side of a scheduled MiniONN layer.
type ServerTriplets struct {
	params Params
	ot     *otext.Receiver
	rng    *prg.PRG
	parts  workerScratch
	// choices holds the decomposed weights of the chunks a run has
	// extended and not yet decoded, chunk i in choices[i%OfflineWindow]:
	// a block reads its choices until it is decoded, and par.Ahead starts
	// chunk i+OfflineWindow only once chunk i has been.
	choices [OfflineWindow][]int

	minionn *baseline.MiniONNServer
}

// workerScratch is a party's per-worker scratch for the triplet kernels,
// kept from round to round so that a round allocates none of it: worker
// k's partial of V (client) or U (server) in sums[k], the client's mask
// s in masks[k], a sub-run's pads in pads[k].
type workerScratch struct {
	sums, masks []ring.Vec
	pads        [][]byte
}

// size readies the scratch of k workers: sums of sumLen elements, masks
// of maskLen, pads of padLen bytes. What they hold is stale: each worker
// clears what it reads before it reads it.
func (w *workerScratch) size(k, sumLen, maskLen, padLen int) {
	for len(w.sums) < k {
		w.sums, w.masks, w.pads = append(w.sums, nil), append(w.masks, nil), append(w.pads, nil)
	}
	for i := range k {
		w.sums[i] = slices.Grow(w.sums[i][:0], sumLen)[:sumLen]
		w.masks[i] = slices.Grow(w.masks[i][:0], maskLen)[:maskLen]
		w.pads[i] = slices.Grow(w.pads[i][:0], padLen)[:padLen]
	}
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

// widestCode returns the widest code a triplet layer of sched extends
// over; a nil schedule runs every layer under the session scheme.
func (p Params) widestCode(sched Schedule) otext.Code {
	if sched == nil {
		return schemeCode(p.Scheme)
	}
	var widest otext.Code
	for _, ch := range sched {
		if sc, ok := p.layerScheme(ch); ok && schemeCode(sc).WidthBits() > widest.WidthBits() {
			widest = schemeCode(sc)
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
// widens it to what its schedule's triplet layers extend over, and
// GenerateLayer to its layer's code, while MiniONN sets itself up at its
// first layer; so a run of layers pays for its own set-up and no other:
// a run of MiniONN layers alone runs no base OTs, one of SecureML or
// QUOTIENT layers those of the N = 2 code only.
func OpenClientTriplets(conn Conn, p Params, session uint64, rng *prg.PRG) (*ClientTriplets, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ot, err := otext.NewSender(conn, otext.Code{}, session, rng)
	if err != nil {
		return nil, err
	}
	ot.SetWorkers(p.Workers)
	return &ClientTriplets{params: p, ot: ot, rng: rng, vals: p.fragValues()}, nil
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
	return &ServerTriplets{params: p, ot: ot, rng: rng}, nil
}

// widen mirrors ClientTriplets.widen. It receives, so it must never run
// on the run-ahead producer, which shares the connection's receive side
// with the consumer.
func (s *ServerTriplets) widen(code otext.Code) error {
	return widenSpan(s.params.Trace, code.WidthBits()-s.ot.Columns(), func() error { return s.ot.Widen(code, s.rng) })
}

// schemeParams resolves a layer's scheme (layerScheme) into the Params
// and fragment-value table the triplet kernel runs under. Other schemes'
// tables are cached by scheme name; the session scheme is the fast path
// with zero allocation.
func (c *ClientTriplets) schemeParams(sc quant.Scheme) (Params, [][]ring.Elem) {
	if sc == c.params.Scheme || sc.Name() == c.params.Scheme.Name() {
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

// Mode names the paper's two offline variants. Both run the one payload
// path (generateClient): every OT sends N-1 ciphertexts of o*l bits,
// since the candidate-0 pad is the mask at every o. The type stays
// exported only for the benchmark's kernel replay, which passes ModeFor(o)
// to GenerateClient and GenerateServer; its one effect is checkShape's
// rule that OneBatch needs o = 1. Layers run through GenerateLayer, which
// takes none.
type Mode int

const (
	// OneBatch is section 4.1.3's variant, for o = 1.
	OneBatch Mode = iota
	// MultiBatch is section 4.1.2's variant, for any o.
	MultiBatch
)

// ModeFor picks the paper's variant for a batch size: one-batch for
// single predictions, multi-batch otherwise. Like Mode, it only feeds
// checkShape.
func ModeFor(o int) Mode {
	if o == 1 {
		return OneBatch
	}
	return MultiBatch
}

// subRun is how many OTs a worker derives the pads of in one run: whole
// groups of the pad kernel's eight lanes at N = 2 and N = 4 on both
// sides. Each worker derives them into its own scratch before it encodes
// or decodes.
const subRun = 32

// GenerateClient is GenerateLayer for an ABNN2 layer under the session
// scheme. mode only adds checkShape's o = 1 rule for OneBatch.
func (c *ClientTriplets) GenerateClient(sh MatShape, R *ring.Mat, mode Mode) (*ring.Mat, error) {
	if err := checkShape(sh, mode); err != nil {
		return nil, err
	}
	return c.GenerateLayer(LayerChoice{}, sh, R)
}

// generateClient is a triplet layer's client side under params, the
// session's or a per-layer fragmentation override's (a planner-chosen η/γ
// decomposition), with vals that scheme's fragment values. The layer
// extends over its own scheme's code; columns for it must be there (see
// widen).
//
// Every OT carries all o products of its weight fragment (section 4.1.2)
// and sends N-1 ciphertexts, as section 4.1.3 does at o = 1: the mask is
// the candidate-0 pad, s := pad(0) read as o ring elements, V accumulates
// s, and ciphertext t >= 1 is (Value(t)*r - s) XOR pad(t). Value(0) = 0
// (quant.Scheme), so the server's output for choice 0 is -s.
func (c *ClientTriplets) generateClient(params Params, vals [][]ring.Elem, sh MatShape, R *ring.Mat) (*ring.Mat, error) {
	if err := checkShape(sh, MultiBatch); err != nil {
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
	padBytes := sh.O * rg.Bytes()
	layout := newPayloadLayout(params.Scheme, padBytes)

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
		// write disjoint spans of the payload flight directly. Each writes
		// every byte of its span, pads and all, so the flight is reused
		// from round to round (Send does not keep it).
		base := layout.at(ot)
		n := layout.at(ot+chunk) - base
		if cap(c.payload) < n {
			c.payload = make([]byte, n)
		}
		payload := c.payload[:n]
		// Fragment x row accumulation: each worker sums its OT range
		// into a private partial of V, reduced below. Ring addition is
		// commutative, so the result is independent of scheduling.
		parts := par.NumChunks(params.Workers, chunk)
		c.parts.size(parts, sh.M*sh.O, sh.O, subRun*layout.maxN*padBytes)
		par.Chunks(params.Workers, chunk, func(part, lo, hi int) {
			pv, s := c.parts.sums[part], c.parts.masks[part] // s: the OT's mask
			clear(pv)
			pV := &ring.Mat{Rows: sh.M, Cols: sh.O, Data: pv}
			pads := blk.NewDeriver()
			cands := c.parts.pads[part] // a sub-run's pads
			var cand []byte             // the OT's
			for local := lo; local < hi; local++ {
				g := ot + local
				i := g / (sh.N * gamma) // W row
				j := (g / gamma) % sh.N // W col
				f := g % gamma          // fragment
				n := layout.n[f]
				if (local-lo)%subRun == 0 {
					clear(cands)
					layout.derive(pads, cands, ot, local, min(local+subRun, hi), padBytes)
					cand = cands
				}
				// s := pad(0), read as o ring elements; V accumulates it.
				clear(s)
				rg.AddDecoded(s, cand)
				rg.AddVecInPlace(pV.Row(i), s)
				// Each message is encoded straight into its span of the
				// payload flight, under its pad, in one pass.
				out := payload[layout.at(g)-base : layout.at(g+1)-base]
				rg.PutMulSub(out, cand[padBytes:n*padBytes], vals[f][1:n], R.Row(j), s)
				cand = cand[n*padBytes:]
			}
		})
		blk.Release()
		for _, pv := range c.parts.sums[:parts] {
			rg.AddVecInPlace(V.Data, pv)
		}
		if err := c.ot.Conn().Send(payload); err != nil {
			return nil, fmt.Errorf("core: client send payload: %w", err)
		}
		ot += chunk
	}
	return V, nil
}

// payloadLayout places each OT's ciphertext block in a layer's payload
// flights. Sizes depend only on public data — the pad size and the
// fragment schedule, which repeats every γ OTs — so both parties, and
// every worker, compute the identical layout, once per layer.
type payloadLayout struct {
	n      []int // candidates of fragment f
	prefix []int // prefix[f]: ciphertext bytes of one weight's fragments 0..f-1
	maxN   int
}

func newPayloadLayout(sc quant.Scheme, padBytes int) payloadLayout {
	gamma := sc.Gamma()
	l := payloadLayout{n: make([]int, gamma), prefix: make([]int, gamma+1)}
	for f := range l.n {
		l.n[f] = sc.FragmentN(f)
		l.maxN = max(l.maxN, l.n[f])
		// Candidate 0 has no ciphertext: its pad is the mask.
		l.prefix[f+1] = l.prefix[f] + (l.n[f]-1)*padBytes
	}
	return l
}

// derive XORs into buf, a client sub-run's scratch, the pads of the
// chunk's OTs lo..hi-1, the chunk starting at OT ot: every candidate of
// each, padBytes each, OT after OT. A stretch of OTs with the same N is
// one run of the deriver; under a uniform scheme that is all of them.
func (l payloadLayout) derive(d *otext.SenderDeriver, buf []byte, ot, lo, hi, padBytes int) {
	gamma := len(l.n)
	for lo < hi {
		n, k := l.n[(ot+lo)%gamma], 1
		for lo+k < hi && l.n[(ot+lo+k)%gamma] == n {
			k++
		}
		d.XORPadsRun(buf[:k*n*padBytes], padBytes, lo, n)
		buf, lo = buf[k*n*padBytes:], lo+k
	}
}

// at returns the offset of OT g's ciphertext block from the start of the
// layer's first flight; a flight starting at OT base starts at at(base).
func (l payloadLayout) at(g int) int {
	gamma := len(l.n)
	return g/gamma*l.prefix[gamma] + l.prefix[g%gamma]
}

// GenerateServer mirrors GenerateClient.
func (s *ServerTriplets) GenerateServer(sh MatShape, W []int64, mode Mode) (*ring.Mat, error) {
	if err := checkShape(sh, mode); err != nil {
		return nil, err
	}
	return s.GenerateLayer(LayerChoice{}, sh, W)
}

// serverLayer is one layer of a run: its shape and weights, under
// params — the session's, or a per-layer fragmentation override's.
type serverLayer struct {
	params Params
	sh     MatShape
	W      []int64
}

// chunks is the number of extension rounds the layer is cut into.
func (l serverLayer) chunks() int { return (l.params.NumOTs(l.sh) + chunkOTs - 1) / chunkOTs }

// generateServer is the server side of the offline phase for a run of
// consecutive triplet layers, pipelined on one par.Ahead over the run's
// flat chunk sequence: a producer goroutine decomposes each chunk's
// weights into its choices and runs Extend — which sends the chunk's u
// matrix — for up to OfflineWindow chunks that are extended but not yet
// decoded, while this goroutine receives payload k and decodes it against
// the queued block. u_{k+1} depends on nothing the client sends, in the next layer no more
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
	layouts := make([]payloadLayout, len(run))
	for k, l := range run {
		if err := checkShape(l.sh, MultiBatch); err != nil {
			return nil, err
		}
		if len(l.W) != l.sh.M*l.sh.N {
			return nil, fmt.Errorf("core: W has %d elements, want %d", len(l.W), l.sh.M*l.sh.N)
		}
		first[k+1] = first[k] + l.chunks()
		layouts[k] = newPayloadLayout(l.params.Scheme, l.sh.O*l.params.Ring.Bytes())
	}
	us := make([]*ring.Mat, len(run))

	pk := -1 // the producer's layer; only the producer goroutine touches it
	extend := func(_, i int, _ <-chan struct{}) (*otext.ReceiverBlock, error) {
		for pk < 0 || i >= first[pk+1] {
			pk++
			if err := s.ot.Use(schemeCode(run[pk].params.Scheme)); err != nil {
				return nil, fmt.Errorf("core: server extend: %w", err)
			}
		}
		// The chunk's OTs, weight after weight, fragments innermost: those
		// of the weights it touches, less the fragments of its first and
		// last weight that belong to the chunks either side.
		l := run[pk]
		gamma := l.params.Scheme.Gamma()
		lo := (i - first[pk]) * chunkOTs
		hi := min(l.params.NumOTs(l.sh), lo+chunkOTs)
		buf, err := quant.AppendChoices(l.params.Scheme, s.choices[i%OfflineWindow][:0], l.W, lo/gamma, (hi+gamma-1)/gamma)
		if err != nil {
			return nil, err
		}
		s.choices[i%OfflineWindow] = buf
		blk, err := s.ot.Extend(buf[lo%gamma : lo%gamma+hi-lo])
		if err != nil {
			return nil, fmt.Errorf("core: server extend: %w", err)
		}
		return blk, nil
	}
	ck := 0 // the consumer's layer
	decode := func(i int, blk *otext.ReceiverBlock) error {
		params, sh := run[ck].params, run[ck].sh
		if us[ck] == nil {
			us[ck] = ring.NewMat(sh.M, sh.O)
		}
		U := us[ck]
		rg := params.Ring
		gamma := params.Scheme.Gamma()
		padBytes := sh.O * rg.Bytes()
		layout := layouts[ck]
		ot := (i - first[ck]) * chunkOTs
		chunk := blk.Count()
		payload, err := s.ot.Conn().Recv()
		if err != nil {
			return fmt.Errorf("core: server recv payload: %w", err)
		}
		base := layout.at(ot)
		if want := layout.at(ot+chunk) - base; len(payload) != want {
			return fmt.Errorf("core: payload is %d bytes, want %d", len(payload), want)
		}
		// Mirror of the client kernel: workers decode disjoint payload
		// spans into private partials of U, reduced below. A sub-run's
		// pads lie OT after OT, at least 16 bytes apart: a pad of up to 16
		// bytes is a prefix of its OT's one chaining value
		// (prg.FastOracle), so a 16-byte pad serves any shorter one.
		stride := max(padBytes, 16)
		parts := par.NumChunks(params.Workers, chunk)
		s.parts.size(parts, sh.M*sh.O, 0, subRun*stride)
		par.Chunks(params.Workers, chunk, func(part, lo, hi int) {
			pu := s.parts.sums[part]
			clear(pu)
			pU := &ring.Mat{Rows: sh.M, Cols: sh.O, Data: pu}
			pads := blk.NewDeriver()
			scratch := s.parts.pads[part]
			for local := lo; local < hi; local++ {
				g := ot + local
				i := g / (sh.N * gamma)
				w := blk.Choice(local)
				urow := pU.Row(i)
				ct := payload[layout.at(g)-base : layout.at(g+1)-base]
				k := (local - lo) % subRun
				if k == 0 {
					run := scratch[:stride*(min(local+subRun, hi)-local)]
					clear(run)
					pads.XORPadsRun(run, stride, local)
				}
				pad := scratch[k*stride : k*stride+padBytes]
				if w == 0 {
					// Output -s where s = pad(0); Value(0)*r = 0.
					rg.SubDecoded(urow, pad)
					continue
				}
				// Decrypt ciphertext w-1 (candidate 0 has none) in the
				// scratch, so the received flight is left as it arrived, and
				// add the products into U's row. The decoder masks the bits
				// above l and never rejects.
				subtle.XORBytes(pad, pad, ct[(w-1)*padBytes:w*padBytes])
				rg.AddDecoded(urow, pad)
			}
		})
		blk.Release()
		s.ot.Conn().Release(payload)
		for _, pu := range s.parts.sums[:parts] {
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

// checkShape refuses an empty shape, and o > 1 under OneBatch. The kernels
// pass MultiBatch, which takes any o.
func checkShape(sh MatShape, mode Mode) error {
	if sh.M <= 0 || sh.N <= 0 || sh.O <= 0 {
		return fmt.Errorf("core: invalid shape %+v", sh)
	}
	if mode == OneBatch && sh.O != 1 {
		return fmt.Errorf("core: one-batch mode needs o=1, got o=%d", sh.O)
	}
	return nil
}
