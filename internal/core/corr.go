package core

import (
	"fmt"

	"abnn2/internal/baseline"
	"abnn2/internal/nn"
	"abnn2/internal/par"
	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/trace"
)

// Correlation state: the product of the data-independent offline phase,
// reified as a value so it can be generated away from the session that
// consumes it (see internal/bank). A correlation pair is bound to one
// (model, ring, scheme, batch) tuple and to a single online batch — the
// online phase consumes its matrices in place, so installing the same
// half twice is a correlation-reuse bug, not a supported operation.

// ServerCorr is the server's half of one batch's offline output: the U
// triplet share of every linear layer, U + V = W * R.
type ServerCorr struct {
	Batch int
	U     []*ring.Mat // per linear layer, l.Out x batch*l.Cols()
}

// ClientCorr is the client's half: the input mask, the V triplet shares,
// and the client's pre-chosen next-layer shares for every GC junction.
type ClientCorr struct {
	Batch int
	R0    *ring.Mat   // input mask, InputSize x batch
	V     []*ring.Mat // per linear layer, l.Out x batch*l.Cols()
	Z1    []*ring.Mat // per layer; non-nil exactly for ReLU/pool layers
}

// OfflineCorrSched runs the server side of the offline phase for one
// batch under a per-layer backend schedule (nil = all-ABNN2) and returns
// the resulting correlation half without installing it anywhere: the
// engines call it on the request path, a precompute service against the
// matching client generator ahead of any session. Every backend yields
// the same object — the layer's U share — so the returned correlation is
// interchangeable downstream; only the wire bytes spent producing it
// differ.
//
// Each maximal run of consecutive triplet layers — ABNN2, SecureML and
// QUOTIENT, each under its layerScheme — is one pipeline (see
// generateServer): the server extends into layer L+1 while layer L's
// payloads are still coming back. A MiniONN layer ends the run, which
// drains before MiniONN's own messages start. Every layer still gets
// its "triplets" span: a run's consumer closes layer L's and opens layer
// L+1's when it has decoded L's last chunk, so the spans tile the phase;
// what a server span's byte count says is what crossed the wire while it
// was open, which inside a run includes u matrices of the layer after.
func (s *ServerTriplets) OfflineCorrSched(model *nn.QuantizedModel, batch int, sched Schedule) (*ServerCorr, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("core: batch must be positive")
	}
	if sched != nil && len(sched) != len(model.Layers) {
		return nil, fmt.Errorf("core: schedule has %d layers, model has %d", len(sched), len(model.Layers))
	}
	if err := s.widen(s.params.widestCode(sched)); err != nil {
		return nil, fmt.Errorf("core: server offline: %w", err)
	}
	choice := func(li int) LayerChoice {
		if sched == nil {
			return LayerChoice{}
		}
		return sched[li]
	}
	shape := func(li int) MatShape { return ShapeAt(model.Layers[li].Shape, batch) }
	span := func(li int) *trace.SpanCtx {
		return s.params.Trace.Start("triplets").SetLayer(li).SetWorkers(par.Workers(s.params.Workers))
	}
	n := len(model.Layers)
	corr := &ServerCorr{Batch: batch, U: make([]*ring.Mat, n)}
	for li := 0; li < n; {
		if _, ok := s.params.layerScheme(choice(li)); !ok {
			lsp := span(li)
			u, err := s.GenerateLayer(choice(li), shape(li), model.Layers[li].W)
			lsp.End(err)
			if err != nil {
				return nil, fmt.Errorf("core: server offline layer %d (%s): %w", li, choice(li).Backend, err)
			}
			corr.U[li] = u
			li++
			continue
		}
		var run []serverLayer
		start, end := li, li
		for ; end < n; end++ {
			sc, ok := s.params.layerScheme(choice(end))
			if !ok {
				break
			}
			p := s.params
			p.Scheme = sc
			run = append(run, serverLayer{params: p, sh: shape(end), W: model.Layers[end].W})
		}
		// li follows the run's consumer, so that it names the layer whose
		// span is open — the one an error belongs to.
		lsp := span(li)
		us, err := s.generateServer(run, func() {
			lsp.End(nil)
			if li++; li < end {
				lsp = span(li)
			}
		})
		if err != nil {
			lsp.End(err)
			return nil, fmt.Errorf("core: server offline layer %d (%s): %w", li, choice(li).Backend, err)
		}
		copy(corr.U[start:end], us)
	}
	return corr, nil
}

// GenerateLayer is the one way the server runs a layer: U (m x o) for
// weights W (m x n) under choice ch, the backend table's dispatch. A
// triplet layer is a one-layer run (generateServer) under its
// layerScheme, after base OTs for any columns that scheme's code lacks.
// MiniONN's server is built at the first layer routed to it — so a
// session that routes none consumes no extra randomness — and kept. Both
// parties reach that layer at the same point of the message sequence, so
// the lazily-run set-up flights pair up.
func (s *ServerTriplets) GenerateLayer(ch LayerChoice, sh MatShape, W []int64) (*ring.Mat, error) {
	if sc, ok := s.params.layerScheme(ch); ok {
		if err := s.widen(schemeCode(sc)); err != nil {
			return nil, fmt.Errorf("core: %s setup: %w", ch.Backend, err)
		}
		p := s.params
		p.Scheme = sc
		us, err := s.generateServer([]serverLayer{{params: p, sh: sh, W: W}}, func() {})
		if err != nil {
			return nil, err
		}
		return us[0], nil
	}
	if ch.Backend != BackendMiniONN {
		return nil, fmt.Errorf("core: unknown backend %d", uint8(ch.Backend))
	}
	if s.minionn == nil {
		g, err := baseline.NewMiniONNServer(s.ot.Conn(), s.params.Ring, s.params.Workers, s.rng.Child(ch.Backend.String()))
		if err != nil {
			return nil, fmt.Errorf("core: %s setup: %w", ch.Backend, err)
		}
		s.minionn = g
	}
	return s.minionn.GenerateServer(W, sh.M, sh.N, sh.O)
}

// OfflineCorrSched runs the client side of the offline phase: it samples
// the input mask and every future activation share from shareRNG (the
// triplet masking randomness comes from the generator's own stream), then
// generates the matching triplets layer by layer under the schedule (nil
// = all-ABNN2). The share sampling is schedule-independent, so the same
// seed yields the same R0/Z1 under every schedule.
func (c *ClientTriplets) OfflineCorrSched(arch Arch, shareRNG *prg.PRG, batch int, sched Schedule) (*ClientCorr, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("core: batch must be positive")
	}
	if sched != nil && len(sched) != len(arch.Layers) {
		return nil, fmt.Errorf("core: schedule has %d layers, architecture has %d", len(sched), len(arch.Layers))
	}
	if err := c.widen(c.params.widestCode(sched)); err != nil {
		return nil, fmt.Errorf("core: client offline: %w", err)
	}
	rg := c.params.Ring
	corr := &ClientCorr{
		Batch: batch,
		R0:    shareRNG.Mat(rg, arch.InputSize(), batch),
		V:     make([]*ring.Mat, 0, len(arch.Layers)),
		Z1:    make([]*ring.Mat, len(arch.Layers)),
	}
	r := corr.R0
	for li, l := range arch.Layers {
		sh := ShapeAt(l, batch)
		var ch LayerChoice
		if sched != nil {
			ch = sched[li]
		}
		lsp := c.params.Trace.Start("triplets").SetLayer(li).SetWorkers(par.Workers(c.params.Workers))
		v, err := c.GenerateLayer(ch, sh, shareCols(l, r))
		lsp.End(err)
		if err != nil {
			return nil, fmt.Errorf("core: client offline layer %d (%s): %w", li, ch.Backend, err)
		}
		corr.V = append(corr.V, v)
		switch {
		case l.Reshares():
			// The GC reshare lets the client fix its next-layer share now.
			corr.Z1[li] = shareRNG.Mat(rg, l.OutputSize(), batch)
			r = corr.Z1[li]
		case li+1 < len(arch.Layers):
			// Purely linear junction: the client's share of this layer's
			// output is its (requantized) triplet share, already known.
			next := foldBatch(v.Clone(), batch)
			if l.ReqC != 0 {
				RequantVec1(rg, next.Data, l.ReqC, l.ReqT)
			}
			r = next
		}
	}
	return corr, nil
}

// GenerateLayer mirrors ServerTriplets.GenerateLayer: V (m x o) for the
// client's share matrix R (n x o), with U + V = W * R.
func (c *ClientTriplets) GenerateLayer(ch LayerChoice, sh MatShape, R *ring.Mat) (*ring.Mat, error) {
	if sc, ok := c.params.layerScheme(ch); ok {
		if err := c.widen(schemeCode(sc)); err != nil {
			return nil, fmt.Errorf("core: %s setup: %w", ch.Backend, err)
		}
		p, vals := c.schemeParams(sc)
		return c.generateClient(p, vals, sh, R)
	}
	if ch.Backend != BackendMiniONN {
		return nil, fmt.Errorf("core: unknown backend %d", uint8(ch.Backend))
	}
	if c.minionn == nil {
		g, err := baseline.NewMiniONNClient(c.ot.Conn(), c.params.Ring, PaillierBits(c.params.MiniONNBits), c.params.Workers, c.rng.Child(ch.Backend.String()))
		if err != nil {
			return nil, fmt.Errorf("core: %s setup: %w", ch.Backend, err)
		}
		c.minionn = g
	}
	return c.minionn.GenerateClient(sh.M, R)
}

// InstallCorr arms the engine with a precomputed correlation half, in
// place of running Offline inline. The half must have been generated
// against this exact model, ring, and scheme by the paired client
// generator; shapes are fully validated (a half from the wrong pool is an
// error, never a panic deeper in the online phase). The corr is consumed:
// the online phase mutates its matrices, so each half installs at most
// once.
func (e *ServerEngine) InstallCorr(c *ServerCorr) error {
	if c == nil || c.Batch <= 0 {
		return fmt.Errorf("core: install server corr: missing or empty correlation")
	}
	if len(c.U) != len(e.model.Layers) {
		return fmt.Errorf("core: install server corr: %d layers, model has %d", len(c.U), len(e.model.Layers))
	}
	for li, l := range e.model.Layers {
		u := c.U[li]
		if u == nil || u.Rows != l.Out || u.Cols != c.Batch*l.Cols() {
			return fmt.Errorf("core: install server corr: layer %d share malformed", li)
		}
	}
	e.u = c.U
	e.batch = c.Batch
	return nil
}

// InstallCorr is the client-side counterpart of the server's InstallCorr;
// the same single-use contract applies.
func (e *ClientEngine) InstallCorr(c *ClientCorr) error {
	if c == nil || c.Batch <= 0 {
		return fmt.Errorf("core: install client corr: missing or empty correlation")
	}
	if len(c.V) != len(e.arch.Layers) || len(c.Z1) != len(e.arch.Layers) {
		return fmt.Errorf("core: install client corr: %d/%d layers, arch has %d",
			len(c.V), len(c.Z1), len(e.arch.Layers))
	}
	if c.R0 == nil || c.R0.Rows != e.arch.InputSize() || c.R0.Cols != c.Batch {
		return fmt.Errorf("core: install client corr: input mask malformed")
	}
	for li, l := range e.arch.Layers {
		v := c.V[li]
		if v == nil || v.Rows != l.Out || v.Cols != c.Batch*l.Cols() {
			return fmt.Errorf("core: install client corr: layer %d triplet share malformed", li)
		}
		z := c.Z1[li]
		if l.Reshares() && (z == nil || z.Rows != l.OutputSize() || z.Cols != c.Batch) {
			return fmt.Errorf("core: install client corr: layer %d activation share malformed", li)
		}
		if !l.Reshares() && z != nil {
			return fmt.Errorf("core: install client corr: layer %d has a share but no GC junction", li)
		}
	}
	e.r0 = c.R0
	e.v = c.V
	e.z1 = c.Z1
	e.batch = c.Batch
	return nil
}
