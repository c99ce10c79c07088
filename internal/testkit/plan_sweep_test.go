package testkit

import (
	"fmt"
	"testing"

	"abnn2"
	"abnn2/internal/core"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
)

// planSweepSeeds is the grid-covering prefix of the conformance sweep:
// 40 consecutive seeds hit every (eta, ring) pair (see
// TestSweepCoverage), so the mixed-plan sweep exercises every backend
// against every scheme family and ring width.
const planSweepSeeds = 40

// planSweepKeyBits keeps the MiniONN layers of the sweep measurable on
// one core; the key size is public protocol state both parties agree
// on, and share correctness is key-size independent.
const planSweepKeyBits = 512

// randomPlan draws a per-layer backend assignment for a case, seeded
// from the case seed so a failing plan reproduces from the seed alone.
// Each layer picks uniformly among its applicable backends (QUOTIENT
// only where the session scheme's range fits [-1,1]), and ABNN2 layers
// occasionally carry a scheme override
// widened to cover the session range — the planner emits exactly such
// overrides when a coarser fragmentation is cheaper.
func randomPlan(c *Case) (core.Schedule, error) {
	arch := core.ArchOf(c.Model)
	session, err := quant.Parse(arch.SchemeName)
	if err != nil {
		return nil, err
	}
	smin, smax := session.Range()
	rng := prg.New(prg.SeedFromInt(c.Seed)).Child("testkit-plan")
	p := make(core.Schedule, len(arch.Layers))
	for i := range arch.Layers {
		cands := []core.BackendID{core.BackendABNN2, core.BackendSecureML, core.BackendMiniONN}
		if smin >= -1 && smax <= 1 {
			cands = append(cands, core.BackendQuotient)
		}
		ch := core.LayerChoice{Backend: cands[rng.Intn(len(cands))]}
		if ch.Backend == core.BackendABNN2 && rng.Intn(3) == 0 {
			ch.Scheme = overrideScheme(rng, smin, smax)
		}
		p[i] = ch
	}
	return p, nil
}

// overrideScheme builds a random fragmentation of the smallest bit
// scheme covering [smin, smax] — a valid ABNN2 per-layer override for
// any session scheme with that range.
func overrideScheme(rng *prg.PRG, smin, smax int64) quant.Scheme {
	signed := smin < 0
	bits := 1
	for {
		var lo, hi int64
		if signed {
			lo, hi = -(int64(1) << (bits - 1)), (int64(1)<<(bits-1))-1
		} else {
			lo, hi = 0, (int64(1)<<bits)-1
		}
		if lo <= smin && hi >= smax {
			break
		}
		bits++
	}
	return quant.NewBitScheme(signed, randomPartition(rng, bits)...)
}

// TestMixedPlanSweep is the planner's conformance lock: for every seed
// of the grid-covering prefix it draws a random per-layer backend
// assignment, runs the session under that plan on both parties, and
// demands bit-identity against both the plaintext ring reference
// (nn.ForwardRing) and the same case run single-backend (the all-ABNN2
// default). Any backend whose triplet shares drift from the others by
// even one ring element fails here with a reproducing seed.
func TestMixedPlanSweep(t *testing.T) {
	for seed := 0; seed < planSweepSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := Generate(uint64(seed))
			p, err := randomPlan(c)
			if err != nil {
				t.Fatalf("%s: draw plan: %v", c.Desc(), err)
			}
			arch := core.ArchOf(c.Model)
			if err := p.Validate(arch, nil); err != nil {
				t.Fatalf("%s: generated plan %s invalid: %v", c.Desc(), p, err)
			}
			planned, err := RunSecureCfg(c, 0, func(server bool, cfg *abnn2.Config) {
				cfg.Plan = p
				cfg.MiniONNKeyBits = planSweepKeyBits
			})
			if err != nil {
				t.Fatalf("%s: plan %s: %v", c.Desc(), p, err)
			}
			uniform, err := RunSecure(c, 0)
			if err != nil {
				t.Fatalf("%s: uniform baseline: %v", c.Desc(), err)
			}
			rg := ring.New(c.RingBits)
			for k, x := range c.Inputs {
				want := c.Model.ForwardRing(rg, c.Model.EncodeInput(rg, x))
				if planned.Rows != len(want) {
					t.Fatalf("%s: plan %s: secure output has %d rows, reference %d",
						c.Desc(), p, planned.Rows, len(want))
				}
				for i, w := range want {
					if got := planned.At(i, k); got != w {
						t.Fatalf("%s: plan %s: output %d of sample %d: secure %d, plaintext %d",
							c.Desc(), p, i, k, got, w)
					}
					if got, u := planned.At(i, k), uniform.At(i, k); got != u {
						t.Fatalf("%s: plan %s: output %d of sample %d: planned %d, single-backend %d",
							c.Desc(), p, i, k, got, u)
					}
				}
			}
		})
	}
}
