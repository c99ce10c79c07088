package core

import (
	"fmt"

	"abnn2/internal/nn"
	"abnn2/internal/otext"
	"abnn2/internal/par"
	"abnn2/internal/prg"
	"abnn2/internal/ring"
)

// End-to-end secure inference (paper section 3, Figure 2). The engine
// splits work into the data-independent offline phase (triplet
// generation; the client also fixes all of its future shares) and the
// online phase (one linear message per network plus the GC activations).

// Arch is the public architecture both parties know: layer shapes, ReLU
// positions, and the input fixed-point precision. Weights stay private to
// the server; inputs stay private to the client.
type Arch struct {
	Layers []nn.Shape
	Frac   uint
	// SchemeName is the quantization scheme designation (quant.Parse
	// syntax); the scheme is public protocol configuration.
	SchemeName string
}

// ArchOf extracts the public architecture of a quantized model.
func ArchOf(qm *nn.QuantizedModel) Arch {
	return Arch{Layers: qm.Shapes(), Frac: qm.Frac, SchemeName: qm.Layers[0].Scheme.Name()}
}

// InputSize returns the network input dimension.
func (a Arch) InputSize() int { return a.Layers[0].In }

// OutputSize returns the network output dimension.
func (a Arch) OutputSize() int { return a.Layers[len(a.Layers)-1].OutputSize() }

// Validate checks structural consistency. The client receives the Arch
// over the network (it is public data, but still attacker-shaped bytes),
// so every geometric assumption the engine makes is checked here, by the
// same rules a server's model file passes.
func (a Arch) Validate() error { return nn.ValidateShapes(a.Frac, a.Layers) }

// shareCols expands a share matrix (features x batch) into matmul column
// form: the matrix itself for FC layers, a per-sample im2col for
// convolutions (a public rearrangement, applied locally to shares).
func shareCols(l nn.Shape, share *ring.Mat) *ring.Mat {
	if l.Conv == nil {
		return share
	}
	batch := share.Cols
	n, p := l.Conv.ColRows(), l.Conv.Positions()
	out := ring.NewMat(n, batch*p)
	x := make(ring.Vec, l.In)
	for k := 0; k < batch; k++ {
		for i := 0; i < l.In; i++ {
			x[i] = share.At(i, k)
		}
		col := l.Conv.Im2ColRing(x)
		for r := 0; r < n; r++ {
			copy(out.Row(r)[k*p:(k+1)*p], col[r*p:(r+1)*p])
		}
	}
	return out
}

// foldBatch reshapes a product matrix Y (Out x batch*P, sample-major
// columns) into the feature-major share layout (Out*P x batch).
func foldBatch(y *ring.Mat, batch int) *ring.Mat {
	if y.Cols == batch {
		return y // P = 1: already feature-major
	}
	out := y.Rows
	p := y.Cols / batch
	f := ring.NewMat(out*p, batch)
	for o := 0; o < out; o++ {
		yr := y.Row(o)
		for k := 0; k < batch; k++ {
			for j := 0; j < p; j++ {
				f.Set(o*p+j, k, yr[k*p+j])
			}
		}
	}
	return f
}

// poolWindowsFlat builds the pooling window index lists over the
// flattened (features x batch) layout, in the output order of the next
// layer's share matrix.
func poolWindowsFlat(l nn.Shape, batch int) [][]int {
	per := l.Pool.Windows(l.Out, l.Conv.OutH(), l.Conv.OutW())
	wins := make([][]int, 0, len(per)*batch)
	for _, win := range per {
		for k := 0; k < batch; k++ {
			w2 := make([]int, len(win))
			for i, pi := range win {
				w2[i] = pi*batch + k
			}
			wins = append(wins, w2)
		}
	}
	return wins
}

const (
	sessionTriplets = 1
	sessionGC       = 2
)

// gcBaseOTs is the base-OT count of the GC subsystem's set-up, one per
// column of IKNP's repetition code. Like the triplet subsystem's set-up
// (one per column of the session scheme's code, see widen) it runs under
// its own "baseot" span.
const gcBaseOTs = otext.Kappa

// ServerEngine is the model owner's side of secure inference.
type ServerEngine struct {
	params  Params
	variant ReLUVariant
	model   *nn.QuantizedModel
	arch    Arch
	conn    Conn
	trip    *ServerTriplets
	nl      *ServerNonlinear
	sched   Schedule

	batch int
	u     []*ring.Mat // per linear layer
}

// ClientEngine is the input owner's side.
type ClientEngine struct {
	params  Params
	variant ReLUVariant
	arch    Arch
	conn    Conn
	trip    *ClientTriplets
	nl      *ClientNonlinear
	rng     *prg.PRG
	sched   Schedule

	batch int
	r0    *ring.Mat   // input mask
	z1    []*ring.Mat // client activation shares per layer (nil when no ReLU)
	v     []*ring.Mat // per linear layer
}

// NewServerEngine sets up the server side: base OTs for the triplet and
// GC subsystems run here, in a fixed order mirrored by NewClientEngine.
func NewServerEngine(conn Conn, model *nn.QuantizedModel, p Params, variant ReLUVariant) (*ServerEngine, error) {
	return NewServerEngineSeeded(conn, model, p, variant, prg.New(prg.NewSeed()))
}

// NewServerEngineSeeded is NewServerEngine with caller-controlled
// randomness. With both parties seeded the whole session transcript is
// byte-reproducible, which the conformance harness (internal/testkit)
// relies on for golden wire transcripts; production callers should let
// NewServerEngine draw an OS seed.
func NewServerEngineSeeded(conn Conn, model *nn.QuantizedModel, p Params, variant ReLUVariant, rng *prg.PRG) (*ServerEngine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	min, max := p.Scheme.Range()
	for li, l := range model.Layers {
		for _, w := range l.W {
			if w < min || w > max {
				return nil, fmt.Errorf("core: layer %d weight %d outside scheme %s range", li, w, p.Scheme.Name())
			}
		}
	}
	trip, err := NewServerTripletsSeeded(conn, p, sessionTriplets, rng.Child("triplets"))
	if err != nil {
		return nil, err
	}
	sp := p.Trace.Start("baseot").SetBatch(gcBaseOTs)
	nl, err := NewServerNonlinear(conn, p.Ring, sessionGC, rng.Child("gc"))
	sp.End(err)
	if err != nil {
		return nil, err
	}
	nl.SetWorkers(p.Workers)
	return &ServerEngine{params: p, variant: variant, model: model, arch: ArchOf(model), conn: conn, trip: trip, nl: nl}, nil
}

// NewClientEngine sets up the client side against the public architecture.
func NewClientEngine(conn Conn, arch Arch, p Params, variant ReLUVariant, rng *prg.PRG) (*ClientEngine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	trip, err := NewClientTriplets(conn, p, sessionTriplets, rng.Child("triplets"))
	if err != nil {
		return nil, err
	}
	sp := p.Trace.Start("baseot").SetBatch(gcBaseOTs)
	nl, err := NewClientNonlinear(conn, p.Ring, sessionGC, rng.Child("gc"))
	sp.End(err)
	if err != nil {
		return nil, err
	}
	nl.SetWorkers(p.Workers)
	return &ClientEngine{params: p, variant: variant, arch: arch, conn: conn, trip: trip, nl: nl, rng: rng}, nil
}

// Arch returns the public architecture of the served model.
func (e *ServerEngine) Arch() Arch { return e.arch }

// SetSchedule fixes the per-layer backend schedule subsequent Offline
// calls run under (nil restores the all-ABNN2 default). Weights are
// validated against each choice, so an unrepresentable plan fails here
// rather than mid-protocol.
func (e *ServerEngine) SetSchedule(s Schedule) error {
	weights := make([][]int64, len(e.model.Layers))
	for i, l := range e.model.Layers {
		weights[i] = l.W
	}
	if err := s.Validate(e.arch, 1, weights); err != nil {
		return err
	}
	e.sched = s
	return nil
}

// SetSchedule is the client-side counterpart; the client holds no
// weights, so only structural validity is checked.
func (e *ClientEngine) SetSchedule(s Schedule) error {
	if err := s.Validate(e.arch, 1, nil); err != nil {
		return err
	}
	e.sched = s
	return nil
}

// Offline runs the server's data-independent phase for one batch of the
// given size and arms the engine with the result. It may be called again
// after Online to provision the next batch. Sessions drawing from a
// precompute bank skip it and InstallCorr a pre-generated half instead.
func (e *ServerEngine) Offline(batch int) error {
	corr, err := e.OfflineCorr(batch)
	if err != nil {
		return err
	}
	return e.InstallCorr(corr)
}

// OfflineCorr is the interactive half of Offline: it runs the offline
// phase under the engine's generators and schedule and returns the
// correlation half without installing it, so a session can generate
// material for a later one (see internal/bank). The engine's installed
// state is untouched.
func (e *ServerEngine) OfflineCorr(batch int) (corr *ServerCorr, err error) {
	sp := e.params.Trace.Start("offline").SetBatch(batch)
	defer func() { sp.End(err) }()
	return e.trip.OfflineCorrSched(e.model, batch, e.sched)
}

// Offline runs the client's data-independent phase: it samples the input
// mask and every future activation share, then generates the matching
// triplets layer by layer, and arms the engine with the result. Sessions
// drawing from a precompute bank skip it and InstallCorr a pre-generated
// half instead.
func (e *ClientEngine) Offline(batch int) error {
	corr, err := e.OfflineCorr(batch)
	if err != nil {
		return err
	}
	return e.InstallCorr(corr)
}

// OfflineCorr is the client-side counterpart of the server's OfflineCorr.
func (e *ClientEngine) OfflineCorr(batch int) (corr *ClientCorr, err error) {
	sp := e.params.Trace.Start("offline").SetBatch(batch)
	defer func() { sp.End(err) }()
	return e.trip.OfflineCorrSched(e.arch, e.rng, batch, e.sched)
}

// Online runs one inference batch on the server side, consuming the
// offline state: the client ends up with the full output scores.
func (e *ServerEngine) Online() error { return e.online(false) }

// OnlineArgmax is Online but with a private argmax finish: the client
// learns only the top class of each sample, and the server learns
// nothing at all (it forwards masked indices). The client must call
// PredictArgmax.
func (e *ServerEngine) OnlineArgmax() error { return e.online(true) }

func (e *ServerEngine) online(argmax bool) (err error) {
	if e.batch == 0 {
		return fmt.Errorf("core: server Online without Offline")
	}
	sp := e.params.Trace.Start("online").SetBatch(e.batch)
	defer func() { sp.End(err) }()
	rg := e.params.Ring
	isp := e.params.Trace.Start("input")
	raw, err := e.conn.Recv()
	isp.End(err)
	if err != nil {
		return fmt.Errorf("core: recv masked input: %w", err)
	}
	in := e.model.Layers[0].In
	data, rest, err := rg.DecodeVec(raw, in*e.batch)
	if err != nil || len(rest) != 0 {
		return fmt.Errorf("core: masked input malformed: %v", err)
	}
	z0 := &ring.Mat{Rows: in, Cols: e.batch, Data: data}
	for li, l := range e.model.Layers {
		spec := e.arch.Layers[li]
		w := l.WMat(rg)
		// The online matmul is the server's heaviest local step; rows of
		// the product touch disjoint output slices, so they fan out across
		// the worker pool.
		msp := e.params.Trace.Start("matmul").SetLayer(li).SetWorkers(par.Workers(e.params.Workers))
		cols := shareCols(spec, z0)
		y0 := ring.NewMat(w.Rows, cols.Cols)
		par.Chunks(e.params.Workers, w.Rows, func(_, lo, hi int) {
			rg.MulMatRows(w, cols, y0, lo, hi)
		})
		y0 = rg.AddMat(y0, e.u[li])
		// Bias is server-local: add to every column of the output row.
		for i := 0; i < l.Out; i++ {
			b := rg.FromSigned(l.B[i])
			row := y0.Row(i)
			for k := range row {
				row[k] = rg.Add(row[k], b)
			}
		}
		if l.ReqC != 0 {
			RequantVec0(rg, y0.Data, l.ReqC, l.ReqT)
		}
		f0 := foldBatch(y0, e.batch)
		msp.End(nil)
		switch {
		case spec.Pool != nil:
			psp := e.params.Trace.Start("pool").SetLayer(li)
			zvec, err := e.nl.MaxPoolServer(f0.Data, poolWindowsFlat(spec, e.batch), l.ReLU)
			psp.End(err)
			if err != nil {
				return fmt.Errorf("core: server pool layer %d: %w", li, err)
			}
			z0 = &ring.Mat{Rows: spec.OutputSize(), Cols: e.batch, Data: zvec}
		case l.ReLU:
			rsp := e.params.Trace.Start("relu").SetLayer(li)
			zvec, err := e.nl.ReLUServer(e.variant, f0.Data)
			rsp.End(err)
			if err != nil {
				return fmt.Errorf("core: server ReLU layer %d: %w", li, err)
			}
			z0 = &ring.Mat{Rows: spec.OutputSize(), Cols: e.batch, Data: zvec}
		default:
			z0 = f0
		}
	}
	if argmax {
		n := z0.Rows
		asp := e.params.Trace.Start("argmax")
		err := e.nl.ArgmaxServer(sampleMajor(z0), n, e.batch)
		asp.End(err)
		if err != nil {
			return fmt.Errorf("core: server argmax: %w", err)
		}
	} else {
		osp := e.params.Trace.Start("output")
		err := e.conn.Send(rg.AppendVec(nil, z0.Data))
		osp.End(err)
		if err != nil {
			return fmt.Errorf("core: send output share: %w", err)
		}
	}
	e.batch = 0
	return nil
}

// sampleMajor regathers a feature-major share matrix (features x batch)
// into the sample-major vector layout the argmax protocol uses.
func sampleMajor(m *ring.Mat) ring.Vec {
	out := make(ring.Vec, m.Rows*m.Cols)
	for k := 0; k < m.Cols; k++ {
		for i := 0; i < m.Rows; i++ {
			out[k*m.Rows+i] = m.At(i, k)
		}
	}
	return out
}

// Predict runs one inference batch on the client side. X is the encoded
// input matrix (InputSize x batch). It returns the reconstructed network
// outputs (OutputSize x batch).
func (e *ClientEngine) Predict(X *ring.Mat) (res *ring.Mat, err error) {
	sp := e.params.Trace.Start("online").SetBatch(e.batch)
	defer func() { sp.End(err) }()
	f1, err := e.predictShares(X)
	if err != nil {
		return nil, err
	}
	rg := e.params.Ring
	osp := e.params.Trace.Start("output")
	raw, err := e.conn.Recv()
	osp.End(err)
	if err != nil {
		return nil, fmt.Errorf("core: recv output share: %w", err)
	}
	out := e.arch.OutputSize()
	y0, rest, err := rg.DecodeVec(raw, out*e.batch)
	if err != nil || len(rest) != 0 {
		return nil, fmt.Errorf("core: output share malformed: %v", err)
	}
	res = &ring.Mat{Rows: out, Cols: e.batch, Data: rg.AddVec(y0, f1.Data)}
	e.batch = 0
	return res, nil
}

// PredictArgmax runs one inference batch ending in the private argmax
// protocol (pair with ServerEngine.OnlineArgmax): the client learns only
// the winning class per sample.
func (e *ClientEngine) PredictArgmax(X *ring.Mat) (classes []int, err error) {
	sp := e.params.Trace.Start("online").SetBatch(e.batch)
	defer func() { sp.End(err) }()
	f1, err := e.predictShares(X)
	if err != nil {
		return nil, err
	}
	n := e.arch.OutputSize()
	asp := e.params.Trace.Start("argmax")
	classes, err = e.nl.ArgmaxClient(sampleMajor(f1), n, e.batch)
	asp.End(err)
	if err != nil {
		return nil, fmt.Errorf("core: client argmax: %w", err)
	}
	e.batch = 0
	return classes, nil
}

// predictShares runs the linear+activation pipeline, returning the
// client's share of the final layer output (feature-major).
func (e *ClientEngine) predictShares(X *ring.Mat) (*ring.Mat, error) {
	if e.batch == 0 {
		return nil, fmt.Errorf("core: client Predict without Offline")
	}
	rg := e.params.Ring
	if X.Rows != e.arch.InputSize() || X.Cols != e.batch {
		return nil, fmt.Errorf("core: input is %dx%d, want %dx%d", X.Rows, X.Cols, e.arch.InputSize(), e.batch)
	}
	// Send the masked input <x>_0 = x - r.
	x0 := rg.SubVec(X.Data, e.r0.Data)
	isp := e.params.Trace.Start("input")
	if err := e.conn.Send(rg.AppendVec(nil, x0)); err != nil {
		isp.End(err)
		return nil, fmt.Errorf("core: send masked input: %w", err)
	}
	isp.End(nil)
	var f1 *ring.Mat
	for li, l := range e.arch.Layers {
		y1 := e.v[li]
		if l.ReqC != 0 {
			RequantVec1(rg, y1.Data, l.ReqC, l.ReqT)
		}
		f1 = foldBatch(y1, e.batch)
		switch {
		case l.Pool != nil:
			psp := e.params.Trace.Start("pool").SetLayer(li)
			err := e.nl.MaxPoolClient(f1.Data, e.z1[li].Data, poolWindowsFlat(l, e.batch), l.ReLU)
			psp.End(err)
			if err != nil {
				return nil, fmt.Errorf("core: client pool layer %d: %w", li, err)
			}
		case l.ReLU:
			rsp := e.params.Trace.Start("relu").SetLayer(li)
			err := e.nl.ReLUClient(e.variant, f1.Data, e.z1[li].Data)
			rsp.End(err)
			if err != nil {
				return nil, fmt.Errorf("core: client ReLU layer %d: %w", li, err)
			}
		}
	}
	// If the final layer ends in a GC reshare, the client's output share
	// is the z1 it chose for that layer, not the triplet share.
	if last := len(e.arch.Layers) - 1; e.arch.Layers[last].Reshares() {
		f1 = e.z1[last]
	}
	return f1, nil
}
