package bench

import (
	"fmt"

	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/plan"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// TablePlanRow records one measured run of the planner comparison: a
// per-layer backend plan (mixed or uniform) executed end to end.
type TablePlanRow struct {
	Plan    string
	Uniform bool
	// OfflineMB is the offline-phase wire traffic, the part of the session
	// a plan actually moves and the measured counterpart of
	// Estimate.TotalCommBits; CommMB is the whole session including the
	// plan-independent online phase.
	OfflineMB float64
	CommMB    float64
	LANSec    float64
	LinkSec   float64 // under the link the plan was priced for (-link)
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
	// "4(2,2)": eta=4 split into two 2-bit fragments.
	return referenceCNN(prg.New(prg.SeedFromInt(53)), quant.Uniform(2, 2), 4, 3)
}

// choosePlan resolves Options.Plan and Options.Link against the reference
// CNN's architecture: the planner's input, the plan to measure first, and
// its predicted cost.
func choosePlan(opt Options, arch core.Arch) (plan.Input, core.Schedule, *plan.Estimate, error) {
	link := plan.WAN()
	if opt.Link != "" {
		var err error
		if link, err = plan.ParseLink(opt.Link); err != nil {
			return plan.Input{}, nil, nil, err
		}
	}
	in := plan.Input{Arch: arch, RingBits: planRingBits, Batch: 1, Link: link, MiniONNBits: planKeyBits}
	val := opt.Plan
	if val == "" {
		val = "auto"
	}
	chosen, est, err := plan.FromFlag(val, in)
	if err != nil {
		return plan.Input{}, nil, nil, err
	}
	return in, chosen, est, nil
}

// CheckPlan reports whether TablePlan can run with opt's Plan and Link,
// so a binary can refuse a mistyped flag in one line; TablePlan itself
// panics on them, as every table does on an error.
func CheckPlan(opt Options) error {
	_, _, _, err := choosePlan(opt, core.ArchOf(PlanReferenceModel()))
	return err
}

// TablePlan runs the protocol-planner comparison on the reference CNN:
// the plan the cost model chooses under the WAN link (or Options.Plan
// when set) against every applicable uniform single-backend plan, each
// executed for real over a metered pipe. The predicted table prints
// first, then the measured rows it is judged against, their wire time
// modelled under the same link.
func TablePlan(opt Options) []TablePlanRow {
	rg := ring.New(planRingBits)
	qm := PlanReferenceModel()
	arch := core.ArchOf(qm)
	in, chosen, est, err := choosePlan(opt, arch)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	batch := in.Batch
	fmt.Fprintf(opt.out(), "Planner: predicted offline cost under %s link (keyBits=%d)\n%s\n",
		in.Link.Name, planKeyBits, est.Table())

	type entry struct {
		sched   core.Schedule
		uniform bool
	}
	_, uni := chosen.IsUniform()
	entries := []entry{{chosen, uni}}
	for _, b := range core.Backends() {
		u := plan.Uniform(b, len(arch.Layers))
		if u.Validate(arch, nil) != nil {
			continue // e.g. QUOTIENT on a multi-bit scheme
		}
		if u.String() == chosen.String() {
			continue
		}
		entries = append(entries, entry{u, true})
	}

	var rows []TablePlanRow
	for _, e := range entries {
		name := e.sched.String()
		ph := runEndToEndModel(opt, "plan "+name,
			endToEnd{ring: rg, model: qm, batch: batch, variant: core.ReLUGC, sched: e.sched, keyBits: planKeyBits})
		meas := ph.whole
		record("plan "+name+" offline", ph.offline)
		rows = append(rows, TablePlanRow{
			Plan:      name,
			Uniform:   e.uniform,
			OfflineMB: float64(ph.offline.TotalBytes()) / (1 << 20),
			CommMB:    meas.CommMB(),
			LANSec:    meas.timeUnder(transport.LAN),
			LinkSec:   meas.timeUnder(in.Link.NetModel),
		})
	}
	t := &table{header: []string{"plan", "LAN(s)", in.Link.Name + "(s)", "offline(MB)", "comm(MB)"}}
	for _, r := range rows {
		t.add(r.Plan, secs(r.LANSec), secs(r.LinkSec), mb(r.OfflineMB), mb(r.CommMB))
	}
	fmt.Fprintf(opt.out(), "Planner: measured under %s link, reference CNN, l=%d, batch=%d\n%s\n", in.Link.Name, planRingBits, batch, t)
	return rows
}
