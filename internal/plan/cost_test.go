package plan

import (
	"testing"

	"abnn2/internal/core"
	"abnn2/internal/nn"
)

// refArch mirrors the bench planner reference CNN (conv 1->4 3x3 on
// 28x28 with fused ReLU+pool, then FC 676->10, 2x2-bit scheme): the two
// layers have opposite cost structure, so link pricing — not a single
// dominant backend — decides the plan.
func refArch() core.Arch {
	conv := &nn.ConvSpec{Ci: 1, H: 28, W: 28, Kh: 3, Kw: 3, Stride: 1, Pad: 0}
	return core.Arch{
		Frac:       8,
		SchemeName: "4(2,2)",
		Layers: []core.LayerSpec{
			{In: conv.InputSize(), Out: 4, ReLU: true, Conv: conv, Pool: &nn.PoolSpec{K: 2}},
			{In: 4 * 13 * 13, Out: nn.NumClasses},
		},
	}
}

func refInput(link Link) Input {
	return Input{Arch: refArch(), RingBits: 32, Batch: 1, Link: link, MiniONNBits: 512}
}

// TestCrossoverFlipsLayer: moving the reference CNN from the LAN preset
// to the WAN preset must flip at least one layer's backend — the whole
// point of a link-priced planner. Concretely the fat-link LAN pays
// MiniONN's Paillier compute in full (OT backends win everywhere),
// while on the thin 72 ms link the wide FC layer's OT traffic loses to
// two compact ciphertext transfers, making the WAN plan a genuine mix.
// The flip is carried by bytes, not by latency: the pipelined offline
// phase is priced at two flights per window of core.OfflineWindow chunks
// (one round trip for this layer, not one per 4096 OTs), and the layer
// still flips.
func TestCrossoverFlipsLayer(t *testing.T) {
	lanPlan, _, err := Choose(refInput(LAN()))
	if err != nil {
		t.Fatal(err)
	}
	wanPlan, _, err := Choose(refInput(WAN()))
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for i := range lanPlan.Layers {
		if lanPlan.Layers[i].Backend != wanPlan.Layers[i].Backend {
			flips++
		}
	}
	if flips == 0 {
		t.Fatalf("LAN plan %s and WAN plan %s agree on every layer's backend; the link model is not pricing anything",
			lanPlan, wanPlan)
	}
	if _, uni := wanPlan.IsUniform(); uni {
		t.Fatalf("WAN plan %s is uniform; expected a mixed per-layer schedule on the reference CNN", wanPlan)
	}
}

// TestCostMonotoneInShape: for every backend, growing any matmul
// dimension (rows, inner dimension, batch) must grow predicted
// communication strictly and predicted time monotonically. A cost
// formula that shrinks under a bigger layer is transcribing the
// Complexity algebra wrongly.
func TestCostMonotoneInShape(t *testing.T) {
	shapes := []core.LayerSpec{
		{In: 16, Out: 8},
		{In: 32, Out: 8},  // inner dimension up
		{In: 32, Out: 24}, // rows up
	}
	for _, b := range []core.BackendID{core.BackendABNN2, core.BackendSecureML, core.BackendMiniONN} {
		var prevComm, prevSec float64
		for step, l := range shapes {
			in := Input{
				Arch:        core.Arch{Frac: 4, SchemeName: "4(2,2)", Layers: []core.LayerSpec{l}},
				RingBits:    32,
				Batch:       1,
				Link:        WAN(),
				MiniONNBits: 512,
			}
			est, err := EstimatePlan(in, Uniform(b, 1))
			if err != nil {
				t.Fatalf("%s step %d: %v", b, step, err)
			}
			comm, sec := est.TotalCommBits(), est.TotalSeconds()
			if step > 0 && comm <= prevComm {
				t.Errorf("%s: comm not strictly increasing at step %d: %.0f -> %.0f bits", b, step, prevComm, comm)
			}
			if step > 0 && sec < prevSec {
				t.Errorf("%s: predicted time decreased at step %d: %.6f -> %.6f s", b, step, prevSec, sec)
			}
			prevComm, prevSec = comm, sec
		}
		// Batch growth, same layer.
		var prevBComm float64
		for step, batch := range []int{1, 2, 4} {
			in := Input{
				Arch:        core.Arch{Frac: 4, SchemeName: "4(2,2)", Layers: []core.LayerSpec{{In: 16, Out: 8}}},
				RingBits:    32,
				Batch:       batch,
				Link:        WAN(),
				MiniONNBits: 512,
			}
			est, err := EstimatePlan(in, Uniform(b, 1))
			if err != nil {
				t.Fatalf("%s batch %d: %v", b, batch, err)
			}
			if comm := est.TotalCommBits(); step > 0 && comm <= prevBComm {
				t.Errorf("%s: comm not strictly increasing in batch at %d: %.0f -> %.0f bits", b, batch, prevBComm, comm)
			} else {
				prevBComm = comm
			}
		}
	}
}

// TestChooseDeterministic: the plan travels the wire and both parties
// must independently agree on what "auto" means, so Choose has to be a
// pure function of its Input — same plan bytes, same fingerprint, same
// predicted totals on every call.
func TestChooseDeterministic(t *testing.T) {
	for _, link := range []Link{LAN(), WAN()} {
		p1, e1, err := Choose(refInput(link))
		if err != nil {
			t.Fatal(err)
		}
		p2, e2, err := Choose(refInput(link))
		if err != nil {
			t.Fatal(err)
		}
		if p1.String() != p2.String() {
			t.Errorf("%s: Choose not deterministic: %s vs %s", link.Name, p1, p2)
		}
		if p1.Fingerprint() != p2.Fingerprint() {
			t.Errorf("%s: fingerprints differ for identical inputs", link.Name)
		}
		if e1.TotalSeconds() != e2.TotalSeconds() || e1.TotalCommBits() != e2.TotalCommBits() {
			t.Errorf("%s: estimates differ for identical inputs", link.Name)
		}
	}
}
