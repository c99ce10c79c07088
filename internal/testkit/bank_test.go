package testkit

import (
	"fmt"
	"sync/atomic"
	"testing"

	"abnn2"
	"abnn2/internal/bank"
	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/ring"
)

// The dual-execution equivalence suite for the offline correlation
// bank: every case runs once with the offline phase inline and once
// with both parties drawing from a shared bank (OfflineBanked, so a
// silent inline fallback would fail the run), and the client outputs
// must match bit for bit — and both must match the plaintext ring
// reference. The bank's correlations come from the same two-party
// protocol the inline path runs, just ahead of time and under the
// bank's own randomness, so agreement here certifies that banked
// provisioning changes *when* the offline phase happens and nothing
// else.

// runBanked executes the case with both endpoints provisioning from a
// freshly prewarmed correlation bank. The model is registered through
// its JSON wire round-trip because the server derives its pool key from
// the model it loads off the wire; the pool must be keyed identically.
func runBanked(c *Case, optRelu bool) (*ring.Mat, error) {
	data, err := nn.MarshalQuantized(c.Model)
	if err != nil {
		return nil, fmt.Errorf("marshal model: %w", err)
	}
	qm, err := nn.UnmarshalQuantized(data)
	if err != nil {
		return nil, fmt.Errorf("unmarshal model: %w", err)
	}
	b := bank.New(bank.Options{Capacity: 1, Seed: 0xB000 + c.Seed})
	defer b.Close()
	id, err := b.RegisterModel(qm)
	if err != nil {
		return nil, fmt.Errorf("register model: %w", err)
	}
	key := bank.Key{Model: id, Scheme: c.Scheme, RingBits: c.RingBits,
		Batch: c.Batch, Backend: bank.SessionBackend}
	if err := b.Prewarm(key, 1); err != nil {
		return nil, fmt.Errorf("prewarm %v: %w", key, err)
	}
	return RunSecureCfg(c, 0, func(server bool, cfg *abnn2.Config) {
		cfg.OptimizedReLU = optRelu
		cfg.Bank = b
		cfg.OfflineMode = abnn2.OfflineBanked
		if !server {
			cfg.BankModel = id
		}
	})
}

// TestBankedEquivalenceSweep is the banked arm of the differential
// sweep: 40 consecutive seeds (one full pass over the eta x ring grid,
// see TestSweepCoverage) under both ReLU variants, banked vs inline vs
// plaintext.
func TestBankedEquivalenceSweep(t *testing.T) {
	for _, v := range []struct {
		name string
		opt  bool
	}{{"std-relu", false}, {"opt-relu", true}} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for seed := uint64(0); seed < 40; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
					t.Parallel()
					c := Generate(seed)
					inline, err := RunSecureCfg(c, 0, func(server bool, cfg *abnn2.Config) {
						cfg.OptimizedReLU = v.opt
					})
					if err != nil {
						t.Fatalf("%s: inline run: %v", c.Desc(), err)
					}
					banked, err := runBanked(c, v.opt)
					if err != nil {
						t.Fatalf("%s: banked run: %v", c.Desc(), err)
					}
					if banked.Rows != inline.Rows || banked.Cols != inline.Cols {
						t.Fatalf("%s: banked output %dx%d, inline %dx%d",
							c.Desc(), banked.Rows, banked.Cols, inline.Rows, inline.Cols)
					}
					for i := range inline.Data {
						if banked.Data[i] != inline.Data[i] {
							t.Fatalf("%s: output element %d: banked %d, inline %d",
								c.Desc(), i, banked.Data[i], inline.Data[i])
						}
					}
					// Both arms against the plaintext reference: agreement
					// between two secure runs alone could hide a shared bug.
					rg := ring.New(c.RingBits)
					for k, x := range c.Inputs {
						want := c.Model.ForwardRing(rg, c.Model.EncodeInput(rg, x))
						for i, w := range want {
							if got := banked.At(i, k); got != w {
								t.Fatalf("%s: output %d of sample %d: banked %d, plaintext %d",
									c.Desc(), i, k, got, w)
							}
						}
					}
				})
			}
		})
	}
}

// planHits counts the draws served from one pool.
type planHits struct {
	key bank.Key
	n   atomic.Int64
}

func (h *planHits) BankEvent(ev bank.Event) {
	if ev.Kind == "hit" && ev.Key == h.key {
		h.n.Add(1)
	}
}

// TestPlannedBankedSweep crosses the planner with the bank: a few seeds
// of the mixed-plan generator, each run provisioned (OfflineBanked, so an
// inline fallback fails the run) from a loopback pool generated under
// that very plan. The outputs must equal the plaintext ring reference,
// the draws must have come from the plan-fingerprinted pool, and that
// pool must never serve a session that announced no plan.
func TestPlannedBankedSweep(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := Generate(seed)
			p, err := randomPlan(c)
			if err != nil {
				t.Fatalf("%s: draw plan: %v", c.Desc(), err)
			}
			if err := p.Validate(core.ArchOf(c.Model), c.Batch); err != nil {
				t.Fatalf("%s: generated plan %s invalid: %v", c.Desc(), p, err)
			}
			sched, err := p.Schedule()
			if err != nil {
				t.Fatalf("%s: plan %s: %v", c.Desc(), p, err)
			}
			data, err := nn.MarshalQuantized(c.Model)
			if err != nil {
				t.Fatal(err)
			}
			qm, err := nn.UnmarshalQuantized(data)
			if err != nil {
				t.Fatal(err)
			}
			hits := &planHits{}
			b := bank.New(bank.Options{Capacity: 1, Seed: 0xAB00 + seed, Observer: hits})
			defer b.Close()
			id, err := b.RegisterModel(qm)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.RegisterSchedule(p.Fingerprint(), sched, planSweepKeyBits); err != nil {
				t.Fatal(err)
			}
			plain := bank.Key{Model: id, Scheme: c.Scheme, RingBits: c.RingBits,
				Batch: c.Batch, Backend: bank.SessionBackend}
			planned := plain
			planned.Backend = bank.PlanBackend(p.Fingerprint())
			hits.key = planned
			if err := b.Prewarm(planned, 1); err != nil {
				t.Fatalf("%s: prewarm %v: %v", c.Desc(), planned, err)
			}
			out, err := RunSecureCfg(c, 0, func(server bool, cfg *abnn2.Config) {
				cfg.Plan = p
				cfg.MiniONNKeyBits = planSweepKeyBits
				cfg.Bank = b
				cfg.OfflineMode = abnn2.OfflineBanked
				if !server {
					cfg.BankModel = id
				}
			})
			if err != nil {
				t.Fatalf("%s: plan %s banked: %v", c.Desc(), p, err)
			}
			rg := ring.New(c.RingBits)
			for k, x := range c.Inputs {
				want := c.Model.ForwardRing(rg, c.Model.EncodeInput(rg, x))
				for i, w := range want {
					if got := out.At(i, k); got != w {
						t.Fatalf("%s: plan %s: output %d of sample %d: banked %d, plaintext %d",
							c.Desc(), p, i, k, got, w)
					}
				}
			}
			if hits.n.Load() == 0 {
				t.Fatalf("%s: plan %s: no draw was served from pool %v", c.Desc(), p, planned)
			}
			// With the planned pool stocked again, a plan-less draw for the
			// same model and batch must find nothing.
			if err := b.Prewarm(planned, 1); err != nil {
				t.Fatalf("%s: prewarm %v: %v", c.Desc(), planned, err)
			}
			if _, _, ok := b.Draw(bank.LoopbackServer, plain); ok {
				t.Fatalf("%s: a plan-less draw was served while only pool %v was stocked", c.Desc(), planned)
			}
			if d := b.Depth(bank.LoopbackServer, planned); d != 1 {
				t.Fatalf("%s: planned pool depth %d after a plan-less draw, want 1", c.Desc(), d)
			}
		})
	}
}

// TestPlannedPeerBankedSweep is TestPlannedBankedSweep between remote
// parties: the same mixed-plan seeds, each prefetched under its plan by a
// store batch over a pipe (two durable stores, no dealer) and then run
// OfflineBanked from the plan-fingerprinted pool that batch filled. The
// outputs must equal the plaintext ring reference.
func TestPlannedPeerBankedSweep(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := Generate(seed)
			p, err := randomPlan(c)
			if err != nil {
				t.Fatalf("%s: draw plan: %v", c.Desc(), err)
			}
			out, err := runPeerBanked(t, c, false, p)
			if err != nil {
				t.Fatalf("%s: plan %s peer-banked: %v", c.Desc(), p, err)
			}
			rg := ring.New(c.RingBits)
			for k, x := range c.Inputs {
				want := c.Model.ForwardRing(rg, c.Model.EncodeInput(rg, x))
				for i, w := range want {
					if got := out.At(i, k); got != w {
						t.Fatalf("%s: plan %s: output %d of sample %d: peer-banked %d, plaintext %d",
							c.Desc(), p, i, k, got, w)
					}
				}
			}
		})
	}
}
