package bench

import (
	"fmt"
	"sync"

	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/plan"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/trace"
	"abnn2/internal/transport"
)

// TablePlanRow records one measured run of the planner comparison: a
// per-layer backend plan (mixed or uniform) executed end to end.
type TablePlanRow struct {
	Plan    string `json:"plan"`
	Uniform bool   `json:"uniform"`
	// OfflineMB is the offline-phase wire traffic (from the "offline"
	// trace span), the part of the session a plan actually moves; CommMB
	// is the whole session including the plan-independent online phase.
	OfflineMB float64 `json:"offline_mb"`
	CommMB    float64 `json:"comm_mb"`
	LANSec    float64 `json:"lan_sec"`
	WANSec    float64 `json:"wan_sec"`
}

// offlineComm sums one party's view of the offline-phase spans, giving
// the measured counterpart of Estimate.TotalCommBits.
type offlineComm struct {
	mu    sync.Mutex
	bytes int64
	next  trace.Sink
}

func (s *offlineComm) Emit(sp trace.Span) {
	if sp.Name == "offline" && sp.Party == "client" {
		s.mu.Lock()
		s.bytes += sp.Bytes()
		s.mu.Unlock()
	}
	if s.next != nil {
		s.next.Emit(sp)
	}
}

// planRingBits is the ring width of the planner comparison (the paper's
// CNN evaluation width).
const planRingBits = 32

// planKeyBits is the Paillier key size the planner comparison runs the
// MiniONN backend with. Smaller than the paper's 1024 so the
// HE-uniform baseline row stays measurable on one core; key size scales
// MiniONN's wire and CPU cost together, so the crossover structure the
// table demonstrates is the same one the full-size key produces on
// real hardware.
const planKeyBits = 512

// PlanReferenceModel is the planner evaluation network: a 2-bit-weight
// CNN (conv 1->4 3x3 on 28x28, fused ReLU+pool 2, FC 676->10) whose
// two layers have opposite cost structure — the convolution amortizes
// one OT per weight fragment over 676 spatial positions (ABNN2
// territory on wire and clock alike), while the wide FC layer needs
// thousands of OTs in chunked flights, where the HE baseline's two
// compact ciphertext transfers win on a thin high-latency link. The
// multi-bit scheme keeps QUOTIENT inapplicable, so the planner must
// find the crossover rather than a ternary shortcut.
func PlanReferenceModel() *nn.QuantizedModel {
	scheme := quant.Uniform(2, 2) // "4(2,2)": eta=4 split into two 2-bit fragments
	rng := prg.New(prg.SeedFromInt(53))
	min, max := scheme.Range()
	span := int(max - min + 1)
	randW := func(n int) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = min + int64(rng.Intn(span))
		}
		return w
	}
	channels := 4
	conv := &nn.ConvSpec{Ci: 1, H: 28, W: 28, Kh: 3, Kw: 3, Stride: 1, Pad: 0}
	fcIn := channels * 13 * 13
	return &nn.QuantizedModel{Frac: 8, Layers: []*nn.QuantizedLayer{
		{
			In: conv.InputSize(), Out: channels,
			W: randW(channels * conv.ColRows()), B: randW(channels),
			Scale: 1, ReLU: true, Scheme: scheme,
			Conv: conv, Pool: &nn.PoolSpec{K: 2},
		},
		{
			In: fcIn, Out: nn.NumClasses,
			W: randW(nn.NumClasses * fcIn), B: randW(nn.NumClasses),
			Scale: 1, Scheme: scheme,
		},
	}}
}

// TablePlan runs the protocol-planner comparison on the reference CNN:
// the plan the cost model chooses under the WAN link (or Options.Plan
// when set) against every applicable uniform single-backend plan, each
// executed for real over a metered pipe. The predicted table prints
// first, then the measured rows it is judged against.
func TablePlan(opt Options) []TablePlanRow {
	rg := ring.New(planRingBits)
	qm := PlanReferenceModel()
	arch := core.ArchOf(qm)
	batch := 1
	keyBits := planKeyBits
	link := plan.WAN()
	if opt.Link != "" {
		var err error
		if link, err = plan.ParseLink(opt.Link); err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
	}
	in := plan.Input{Arch: arch, RingBits: planRingBits, Batch: batch, Link: link, MiniONNBits: keyBits}
	val := opt.Plan
	if val == "" {
		val = "auto"
	}
	chosen, est, err := plan.FromFlag(val, in)
	if err != nil {
		panic(fmt.Sprintf("bench: plan %q: %v", val, err))
	}
	if est != nil {
		fmt.Fprintf(opt.out(), "Planner: predicted offline cost under %s link (keyBits=%d)\n%s\n",
			link.Name, keyBits, est.Table())
	}

	type entry struct {
		p       *plan.Plan
		uniform bool
	}
	_, uni := chosen.IsUniform()
	entries := []entry{{chosen, uni}}
	for _, b := range core.Backends() {
		u := plan.Uniform(b, len(arch.Layers))
		if u.Validate(arch, batch) != nil {
			continue // e.g. QUOTIENT on a multi-bit scheme
		}
		if u.String() == chosen.String() {
			continue
		}
		entries = append(entries, entry{u, true})
	}

	var rows []TablePlanRow
	for _, e := range entries {
		sched, err := e.p.Schedule()
		if err != nil {
			panic(fmt.Sprintf("bench: plan %s: %v", e.p, err))
		}
		oc := &offlineComm{next: opt.Trace}
		ropt := opt
		ropt.Trace = oc
		meas, err := runEndToEndModel(rg, qm, batch, core.ReLUGC, sched, keyBits, ropt, "plan "+e.p.String())
		if err != nil {
			panic(fmt.Sprintf("bench: plan %s: %v", e.p, err))
		}
		rows = append(rows, TablePlanRow{
			Plan:      e.p.String(),
			Uniform:   e.uniform,
			OfflineMB: float64(oc.bytes) / (1 << 20),
			CommMB:    meas.CommMB(),
			LANSec:    meas.timeUnder(transport.LAN),
			WANSec:    meas.timeUnder(transport.WANTable3),
		})
	}
	t := &table{header: []string{"plan", "LAN(s)", "WAN(s)", "offline(MB)", "comm(MB)"}}
	for _, r := range rows {
		t.add(r.Plan, secs(r.LANSec), secs(r.WANSec), mb(r.OfflineMB), mb(r.CommMB))
	}
	fmt.Fprintf(opt.out(), "Planner: measured, reference CNN, l=%d, batch=%d\n%s\n", planRingBits, batch, t)
	return rows
}
