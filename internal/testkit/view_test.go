package testkit

import (
	"fmt"
	"testing"

	"abnn2"
	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/prg"
)

// A party's view may depend on public data only (SECURITY.md): the
// architecture, the plan, the batch size, the ring and the ReLU variant.
// These tests run each case twice — as generated, then with freshly drawn
// server weights and biases and different client inputs — and demand the
// same flight sizes in the same order from both parties. They fail the
// first change that makes a length, a chunk count or a flight depend on a
// secret of either party.

// resecret returns c with new server weights and biases, drawn over each
// layer's own scheme from a stream of the seed's own, and new client
// inputs.
func resecret(c *Case) *Case {
	rng := prg.New(prg.SeedFromInt(c.Seed)).Child("testkit-resecret")
	qm := *c.Model
	qm.Layers = make([]*nn.QuantizedLayer, len(c.Model.Layers))
	for i, l := range c.Model.Layers {
		cp := *l
		fillWeights(rng, &cp, cp.Scheme)
		qm.Layers[i] = &cp
	}
	out := *c
	out.Model = &qm
	out.Inputs = make([][]float64, len(c.Inputs))
	for k, x := range c.Inputs {
		o := make([]float64, len(x))
		for i := range o {
			o[i] = -x[i] + 0.25
		}
		out.Inputs[k] = o
	}
	return &out
}

// checkViewShapes runs c and its resecret twin under both ReLU variants,
// with extra applied to both parties' configs when non-nil.
func checkViewShapes(t *testing.T, c *Case, extra func(cfg *abnn2.Config)) {
	t.Helper()
	other := resecret(c)
	for _, optimized := range []bool{false, true} {
		mutate := func(_ bool, cfg *abnn2.Config) {
			cfg.OptimizedReLU = optimized
			if extra != nil {
				extra(cfg)
			}
		}
		srv, cli := sessionTranscripts(t, c, 1, c.Inputs, mutate)
		srvO, cliO := sessionTranscripts(t, other, 1, other.Inputs, mutate)
		if !EqualShapes(srv, srvO) {
			t.Errorf("%s optimized-relu=%v: server flight shapes depend on the secrets: %s", c.Desc(), optimized, srv.Diff(srvO))
		}
		if !EqualShapes(cli, cliO) {
			t.Errorf("%s optimized-relu=%v: client flight shapes depend on the secrets: %s", c.Desc(), optimized, cli.Diff(cliO))
		}
	}
}

// TestViewShapesIndependentOfSecrets covers the conformance grid's first
// 40 seeds, every (eta, ring) pair.
func TestViewShapesIndependentOfSecrets(t *testing.T) {
	for seed := 0; seed < planSweepSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			checkViewShapes(t, Generate(uint64(seed)), nil)
		})
	}
}

// TestPlannedViewShapesIndependentOfSecrets covers the planned sweep's
// seeds whose plan draws a SecureML or QUOTIENT layer: there the server's
// weights pick the choices of a fixed scheme's OTs, one per weight bit
// or sign.
func TestPlannedViewShapesIndependentOfSecrets(t *testing.T) {
	ran := 0
	for seed := 0; seed < planSweepSeeds; seed++ {
		c := Generate(uint64(seed))
		p, err := randomPlan(c)
		if err != nil {
			t.Fatalf("%s: draw plan: %v", c.Desc(), err)
		}
		drawn := false
		for _, ch := range p {
			drawn = drawn || ch.Backend == core.BackendSecureML || ch.Backend == core.BackendQuotient
		}
		if !drawn {
			continue
		}
		ran++
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			checkViewShapes(t, c, func(cfg *abnn2.Config) {
				cfg.Plan = p
				cfg.MiniONNKeyBits = planSweepKeyBits
			})
		})
	}
	if ran == 0 {
		t.Fatal("no seed of the planned sweep draws a SecureML or QUOTIENT layer")
	}
}
