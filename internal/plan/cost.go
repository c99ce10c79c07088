package plan

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"abnn2/internal/core"
	"abnn2/internal/quant"
	"abnn2/internal/transport"
)

// Link is the channel the offline phase is priced over: a transport link
// model — predicted layer time is its NetworkTime for the layer's bytes
// and waited-on flights — plus the layer's compute / ComputeAmort.
type Link struct {
	transport.NetModel
	// ComputeAmort divides predicted offline *compute* time. On a WAN
	// the offline phase is bank-precomputed ahead of need (overlapping
	// with idle link time across many sessions), so compute is heavily
	// amortized relative to the wire; on a LAN inline generation pays
	// it in full. Must be >= 1.
	ComputeAmort float64
}

// LAN is the datacenter preset: transport.LAN (10 Gbit/s, 0.2 ms RTT),
// inline offline (compute paid in full).
func LAN() Link { return preset("lan", transport.LAN, 1) }

// WAN is the wide-area preset matching the paper's evaluation setting:
// transport.WANTable3 (72 Mbit/s-class broadband, 72 ms RTT); offline
// compute is assumed bank-amortized across sessions.
func WAN() Link { return preset("wan", transport.WANTable3, 64) }

// preset is a transport link model under the name the -link flag knows
// it by.
func preset(name string, nm transport.NetModel, amort float64) Link {
	nm.Name = name
	return Link{NetModel: nm, ComputeAmort: amort}
}

// ParseLink accepts "lan", "wan", or "<MBps>:<RTTms>" (custom link,
// ComputeAmort 1).
func ParseLink(s string) (Link, error) {
	switch s {
	case "lan":
		return LAN(), nil
	case "wan":
		return WAN(), nil
	}
	parts := strings.Split(s, ":")
	if len(parts) == 2 {
		bw, err1 := strconv.ParseFloat(parts[0], 64)
		rtt, err2 := strconv.ParseFloat(parts[1], 64)
		if err1 == nil && err2 == nil && bw > 0 && rtt >= 0 {
			nm := transport.NetModel{BandwidthBytes: bw * 1e6, RTT: time.Duration(rtt * float64(time.Millisecond))}
			return preset(s, nm, 1), nil
		}
	}
	return Link{}, fmt.Errorf("plan: cannot parse link %q (want lan, wan, or MBps:RTTms)", s)
}

// Compute-cost constants. These are coarse single-core calibrations —
// the planner needs relative magnitudes (symmetric-crypto OTs are
// orders of magnitude cheaper than Paillier ops), not microbenchmark
// accuracy; mispredicting compute by 2x cannot flip a choice that comm
// and RTT do not already support.
const (
	// secondsPerOT prices one OT-extension invocation (hashing, ring
	// arithmetic, payload packing) on either party.
	secondsPerOT = 200e-9
	// secondsPerByte prices touching one payload byte beyond the OT
	// fixed cost.
	secondsPerByte = 0.5e-9
	// paillierCubeSeconds prices one Paillier ciphertext operation as
	// cube of the key size: enc/dec are modexps over a 2*keyBits
	// modulus, cubic in keyBits. 5e-12 * 1024^3 ~ 5 ms/op, the measured
	// order of magnitude for the Go bignum baseline.
	paillierCubeSeconds = 5e-12
)

// Candidate is one evaluated (backend, scheme) option for a layer.
type Candidate struct {
	Choice   Choice
	CommBits float64 // predicted offline wire bits, both directions
	Flights  int     // flights a party waits on, i.e. not overlapped by sending ahead (each pair costs one RTT)
	Compute  float64 // seconds of offline compute, before amortization
	Seconds  float64 // total predicted seconds under the link
}

// LayerEstimate is the planner's full view of one layer: every
// applicable candidate (sorted by predicted cost) and the chosen one.
type LayerEstimate struct {
	Layer      int
	Shape      core.MatShape
	Chosen     Candidate
	Candidates []Candidate
}

// Estimate is a priced plan: per-layer predictions plus totals.
type Estimate struct {
	Link   Link
	Layers []LayerEstimate
}

// TotalSeconds sums the predicted per-layer cost. Layers execute
// sequentially in the offline protocol, so the sum is the end-to-end
// prediction — an upper one where consecutive layers run ABNN2: the
// server extends straight through such a run (core.OfflineCorrSched), so
// the window fills and drains once per run, while each layer is priced
// here as if it drained alone (core.OfflineFlights). Pricing runs, not
// layers, belongs to the overlap-aware cost model (ROADMAP).
func (e *Estimate) TotalSeconds() float64 {
	var t float64
	for _, l := range e.Layers {
		t += l.Chosen.Seconds
	}
	return t
}

// TotalCommBits sums predicted offline communication.
func (e *Estimate) TotalCommBits() float64 {
	var b float64
	for _, l := range e.Layers {
		b += l.Chosen.CommBits
	}
	return b
}

// Input is everything the planner needs; all fields are public protocol
// state, so client and server compute identical plans from it.
type Input struct {
	Arch     core.Arch
	RingBits uint
	Batch    int
	Link     Link
	// MiniONNBits overrides the Paillier key size (0 = baseline
	// default).
	MiniONNBits int
}

func (in Input) validate() error {
	if err := in.Arch.Validate(); err != nil {
		return err
	}
	if in.RingBits == 0 || in.RingBits > 64 {
		return fmt.Errorf("plan: ring bits %d outside [1,64]", in.RingBits)
	}
	if in.Batch <= 0 {
		return fmt.Errorf("plan: batch must be positive")
	}
	if in.Link.BandwidthBytes <= 0 || in.Link.ComputeAmort < 1 {
		return fmt.Errorf("plan: malformed link %+v", in.Link)
	}
	return nil
}

// shapeAt is the matmul layer l lowers to at a batch size.
func shapeAt(l core.LayerSpec, batch int) core.MatShape {
	return core.MatShape{M: l.Out, N: l.ColRows(), O: batch * l.Cols()}
}

// price evaluates one (backend, scheme) option for a layer of shape sh: the
// backend table's cost as sent under sc — the fragmentation the layer
// would run under, the session's unless ch overrides it — turned into
// seconds by the compute constants above and in's link.
func price(in Input, ch Choice, sc quant.Scheme, sh core.MatShape) Candidate {
	cx := ch.Backend.Cost(in.RingBits, in.MiniONNBits, sc, sh)
	kb := float64(core.PaillierBits(in.MiniONNBits))
	c := Candidate{
		Choice:   ch,
		CommBits: cx.CommBits,
		Flights:  cx.Flights,
		Compute: float64(cx.NumOTs)*secondsPerOT + cx.CommBits/8*secondsPerByte +
			float64(cx.PaillierOps)*paillierCubeSeconds*kb*kb*kb,
	}
	wire := in.Link.NetworkTime(transport.Stats{BytesAB: int64(c.CommBits / 8), Flights: int64(c.Flights)})
	c.Seconds = wire.Seconds() + c.Compute/in.Link.ComputeAmort
	return c
}

// candidates enumerates every applicable (backend, scheme) option for
// one layer, in a fixed deterministic order: the backend table's, each
// backend under the session scheme first.
func candidates(in Input, session quant.Scheme, l core.LayerSpec) []Candidate {
	sh := shapeAt(l, in.Batch)
	lo, hi := session.Range()
	var out []Candidate
	for _, b := range core.Backends() {
		if b.Fits(sh, lo, hi) != nil {
			continue
		}
		out = append(out, price(in, Choice{Backend: b}, session, sh))
		if !b.Fragments() {
			continue
		}
		// Alternative η/γ decompositions of the same weight range: for
		// bit schemes, re-fragment the η bits into uniform widths (plus a
		// remainder fragment). Candidate counts trade payload size against
		// OT count, so the best width is shape- and link-dependent.
		for _, sc := range altSchemes(session) {
			out = append(out, price(in, Choice{Backend: b, Scheme: sc.Name()}, sc, sh))
		}
	}
	return out
}

// altSchemes enumerates alternative uniform-width decompositions of a
// bit scheme's η bits (same range, same signedness). Ternary and binary
// have no alternatives. The order is fixed (ascending width), keeping
// the planner deterministic.
func altSchemes(session quant.Scheme) []quant.Scheme {
	eta := bitEta(session)
	if eta < 2 {
		return nil
	}
	signed := false
	if min, _ := session.Range(); min < 0 {
		signed = true
	}
	var out []quant.Scheme
	for w := uint(1); w <= 8 && w <= eta; w++ {
		widths := make([]uint, 0, eta/w+1)
		rem := eta
		for rem >= w {
			widths = append(widths, w)
			rem -= w
		}
		if rem > 0 {
			widths = append(widths, rem)
		}
		sc := quant.NewBitScheme(signed, widths...)
		if sc.Name() == session.Name() {
			continue
		}
		out = append(out, sc)
	}
	return out
}

// bitEta returns the total bit width of a power-of-two fragment scheme,
// or 0 for schemes (like ternary) that are not bit decompositions.
func bitEta(sc quant.Scheme) uint {
	var eta uint
	for f := 0; f < sc.Gamma(); f++ {
		n := sc.FragmentN(f)
		if n&(n-1) != 0 {
			return 0
		}
		for n > 1 {
			eta++
			n >>= 1
		}
	}
	return eta
}

// Choose runs the planner: per layer, evaluate every applicable
// candidate and keep the cheapest — of equals, the first in the fixed
// enumeration order (the sort is stable), which makes the result
// deterministic for a fixed Input.
func Choose(in Input) (*Plan, *Estimate, error) {
	if err := in.validate(); err != nil {
		return nil, nil, err
	}
	session, err := quant.Parse(in.Arch.SchemeName)
	if err != nil {
		return nil, nil, fmt.Errorf("plan: session scheme: %w", err)
	}
	p := &Plan{Layers: make([]Choice, len(in.Arch.Layers))}
	est := &Estimate{Link: in.Link, Layers: make([]LayerEstimate, len(in.Arch.Layers))}
	for li, l := range in.Arch.Layers {
		sorted := candidates(in, session, l)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Seconds < sorted[j].Seconds })
		p.Layers[li] = sorted[0].Choice
		est.Layers[li] = LayerEstimate{Layer: li, Shape: shapeAt(l, in.Batch), Chosen: sorted[0], Candidates: sorted}
	}
	return p, est, nil
}

// EstimatePlan prices a given plan (rather than choosing one), for
// predicted-vs-measured reporting.
func EstimatePlan(in Input, p *Plan) (*Estimate, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(in.Arch, in.Batch); err != nil {
		return nil, err
	}
	session, err := quant.Parse(in.Arch.SchemeName)
	if err != nil {
		return nil, fmt.Errorf("plan: session scheme: %w", err)
	}
	est := &Estimate{Link: in.Link, Layers: make([]LayerEstimate, len(p.Layers))}
	for li, ch := range p.Layers {
		sc := session
		if ch.Scheme != "" {
			if sc, err = quant.Parse(ch.Scheme); err != nil {
				return nil, err
			}
		}
		sh := shapeAt(in.Arch.Layers[li], in.Batch)
		est.Layers[li] = LayerEstimate{Layer: li, Shape: sh, Chosen: price(in, ch, sc, sh)}
	}
	return est, nil
}
