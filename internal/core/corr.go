package core

import (
	"fmt"

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
// Each maximal run of consecutive ABNN2 layers is one pipeline (see
// generateServer): the server extends into layer L+1 while layer L's
// payloads are still coming back. A baseline layer ends the run, which
// drains before the baseline's own messages start. Every layer still gets
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
	if err := s.widen(widestCode(s.params.Scheme, sched)); err != nil {
		return nil, fmt.Errorf("core: server offline: %w", err)
	}
	choice := func(li int) LayerChoice {
		if sched == nil {
			return LayerChoice{}
		}
		return sched[li]
	}
	// Convolutions multiply the same weights across every output
	// position, so their OT columns include the spatial positions —
	// exactly the paper's multi-batch reuse, applied to space instead
	// of (only) batch.
	shape := func(li int) MatShape {
		l := model.Layers[li]
		return MatShape{M: l.Out, N: l.ColRows(), O: batch * l.Cols()}
	}
	span := func(li int) *trace.SpanCtx {
		return s.params.Trace.Start("triplets").SetLayer(li).SetWorkers(par.Workers(s.params.Workers))
	}
	n := len(model.Layers)
	corr := &ServerCorr{Batch: batch, U: make([]*ring.Mat, n)}
	for li := 0; li < n; {
		if ch := choice(li); ch.Backend != BackendABNN2 {
			lsp := span(li)
			u, err := s.GenerateBaseline(ch.Backend, shape(li), model.Layers[li].W)
			lsp.End(err)
			if err != nil {
				return nil, fmt.Errorf("core: server offline layer %d (%s): %w", li, ch.Backend, err)
			}
			corr.U[li] = u
			li++
			continue
		}
		var run []serverLayer
		start, end := li, li
		for ; end < n && choice(end).Backend == BackendABNN2; end++ {
			p, sh := s.params, shape(end)
			if sc := choice(end).Scheme; sc != nil {
				p.Scheme = sc
			}
			run = append(run, serverLayer{params: p, sh: sh, W: model.Layers[end].W, mode: ModeFor(sh.O)})
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
			return nil, fmt.Errorf("core: server offline layer %d (%s): %w", li, BackendABNN2, err)
		}
		copy(corr.U[start:end], us)
	}
	return corr, nil
}

// GenerateBaseline runs the server side of one layer on baseline backend
// b: U (m x o) for weights W (m x n). The generator is built from the
// backend table at the first layer a schedule routes to the backend — so
// unscheduled sessions consume no extra randomness and stay
// byte-identical to the pre-schedule wire format — and kept. Both parties
// reach that layer at the same point of the message sequence, so the
// lazily-run setup flights pair up.
func (s *ServerTriplets) GenerateBaseline(b BackendID, sh MatShape, W []int64) (*ring.Mat, error) {
	if !b.Valid() || backends[b].server == nil {
		return nil, fmt.Errorf("core: backend %s has no baseline generator", b)
	}
	if s.baselines[b] == nil {
		e := &backends[b]
		g, err := e.server(s.ot.Conn(), s.params, s.session+e.tag, s.rng.Child(e.name))
		if err != nil {
			return nil, fmt.Errorf("core: %s setup: %w", e.name, err)
		}
		s.baselines[b] = g
	}
	return s.baselines[b].GenerateServer(W, sh.M, sh.N, sh.O)
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
	if err := c.widen(widestCode(c.params.Scheme, sched)); err != nil {
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
		sh := MatShape{M: l.Out, N: l.ColRows(), O: batch * l.Cols()}
		var ch LayerChoice
		if sched != nil {
			ch = sched[li]
		}
		lsp := c.params.Trace.Start("triplets").SetLayer(li).SetWorkers(par.Workers(c.params.Workers))
		v, err := c.generateLayer(ch, sh, shareCols(l, r))
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

// generateLayer is the client-side backend dispatch; R is the client's
// n x o share matrix for the layer.
func (c *ClientTriplets) generateLayer(ch LayerChoice, sh MatShape, R *ring.Mat) (*ring.Mat, error) {
	if ch.Backend == BackendABNN2 {
		p, vals := c.schemeParams(ch.Scheme)
		return c.generateClient(p, vals, sh, R, ModeFor(sh.O))
	}
	return c.GenerateBaseline(ch.Backend, sh, R)
}

// GenerateBaseline mirrors ServerTriplets.GenerateBaseline: V (m x o) for
// the client's share matrix R (n x o).
func (c *ClientTriplets) GenerateBaseline(b BackendID, sh MatShape, R *ring.Mat) (*ring.Mat, error) {
	if !b.Valid() || backends[b].client == nil {
		return nil, fmt.Errorf("core: backend %s has no baseline generator", b)
	}
	if c.baselines[b] == nil {
		e := &backends[b]
		g, err := e.client(c.ot.Conn(), c.params, c.session+e.tag, c.rng.Child(e.name))
		if err != nil {
			return nil, fmt.Errorf("core: %s setup: %w", e.name, err)
		}
		c.baselines[b] = g
	}
	return c.baselines[b].GenerateClient(sh.M, R)
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
