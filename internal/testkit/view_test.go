package testkit

import (
	"fmt"
	"testing"

	"abnn2"
	"abnn2/internal/bank"
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

// sessionRun runs one provisioning of case c, with mutate applied to each
// party's Config, and returns each party's transcript.
type sessionRun func(t *testing.T, c *Case, mutate func(server bool, cfg *abnn2.Config)) (server, client *Transcript)

// inlineSession is one session whose offline phase runs inline.
func inlineSession(t *testing.T, c *Case, mutate func(server bool, cfg *abnn2.Config)) (*Transcript, *Transcript) {
	return sessionTranscripts(t, c, 1, c.Inputs, mutate)
}

// bankedSession is one session both of whose parties draw the batch's
// correlation from a loopback bank prewarmed for c's model.
func bankedSession(t *testing.T, c *Case, mutate func(server bool, cfg *abnn2.Config)) (*Transcript, *Transcript) {
	t.Helper()
	data, err := nn.MarshalQuantized(c.Model)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := nn.UnmarshalQuantized(data)
	if err != nil {
		t.Fatal(err)
	}
	b := bank.New(bank.Options{Capacity: 1, Seed: 0xB000 + c.Seed})
	defer b.Close()
	id, err := b.RegisterModel(qm)
	if err != nil {
		t.Fatal(err)
	}
	key := bank.Key{Model: id, Scheme: c.Scheme, RingBits: c.RingBits, Batch: c.Batch, Backend: bank.SessionBackend}
	if err := b.Prewarm(key, 1); err != nil {
		t.Fatal(err)
	}
	return sessionTranscripts(t, c, 1, c.Inputs, func(server bool, cfg *abnn2.Config) {
		mutate(server, cfg)
		cfg.Bank, cfg.OfflineMode = b, abnn2.OfflineBanked
		if !server {
			cfg.BankModel = id
		}
	})
}

// prefetchedSession is a session that prefetches one batch's correlation
// into two durable stores (Client.Prefetch), then a session that draws it
// from the peer's pool; each party's transcript is its flights of both.
func prefetchedSession(t *testing.T, c *Case, mutate func(server bool, cfg *abnn2.Config)) (*Transcript, *Transcript) {
	t.Helper()
	data, err := nn.MarshalQuantized(c.Model)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := abnn2.LoadQuantizedModel(data)
	if err != nil {
		t.Fatal(err)
	}
	id, err := abnn2.BankModelID(qm)
	if err != nil {
		t.Fatal(err)
	}
	srvStore, srvBank := durableSweepParty(t, 0xE000+c.Seed)
	_, cliBank := durableSweepParty(t, 0xF000+c.Seed)
	peered := func(server bool, cfg *abnn2.Config) {
		mutate(server, cfg)
		cfg.OfflineMode = abnn2.OfflineBanked
		if server {
			cfg.Bank = srvBank
		} else {
			cfg.Bank, cfg.BankModel, cfg.BankPeer = cliBank, id, srvStore.PeerID()
		}
	}

	sConn, cConn := pairConns()
	scfg := abnn2.Config{RingBits: c.RingBits, Seed: 4*c.Seed + 3}
	ccfg := abnn2.Config{RingBits: c.RingBits, Seed: 4*c.Seed + 4}
	peered(true, &scfg)
	peered(false, &ccfg)
	srvErr := make(chan error, 1)
	go func() {
		_, err := abnn2.Serve(sConn, qm, scfg)
		srvErr <- err
	}()
	cli, err := abnn2.Dial(cConn, qm.Arch(), ccfg)
	if err != nil {
		t.Fatalf("prefetch dial: %v", err)
	}
	stored, err := cli.Prefetch(c.Batch, 1)
	cli.Close()
	if serr := <-srvErr; serr != nil || err != nil || stored != 1 {
		t.Fatalf("prefetch: stored %d, client %v, server %v", stored, err, serr)
	}
	srv, cl := sessionTranscripts(t, c, 1, c.Inputs, peered)
	join := func(a, b *Transcript) *Transcript {
		return &Transcript{Flights: append(a.Flights, b.Flights...)}
	}
	return join(sConn.Transcript(), srv), join(cConn.Transcript(), cl)
}

// checkViewShapes runs c and its resecret twin through run under both
// ReLU variants, with extra applied to both parties' configs when non-nil.
func checkViewShapes(t *testing.T, c *Case, run sessionRun, extra func(cfg *abnn2.Config)) {
	t.Helper()
	other := resecret(c)
	for _, optimized := range []bool{false, true} {
		mutate := func(_ bool, cfg *abnn2.Config) {
			cfg.OptimizedReLU = optimized
			if extra != nil {
				extra(cfg)
			}
		}
		srv, cli := run(t, c, mutate)
		srvO, cliO := run(t, other, mutate)
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
			checkViewShapes(t, Generate(uint64(seed)), inlineSession, nil)
		})
	}
}

// TestProvisionedViewShapesIndependentOfSecrets covers the two other
// ways a batch is provisioned, over the sweep's first seeds: drawn from a
// loopback bank, and prefetched into the peers' durable stores and then
// drawn. The prefetching session's flights are part of the view too.
func TestProvisionedViewShapesIndependentOfSecrets(t *testing.T) {
	for _, p := range []struct {
		name string
		run  sessionRun
	}{{"banked", bankedSession}, {"prefetched", prefetchedSession}} {
		for seed := 0; seed < provisionedViewSeeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", p.name, seed), func(t *testing.T) {
				t.Parallel()
				checkViewShapes(t, Generate(uint64(seed)), p.run, nil)
			})
		}
	}
}

// provisionedViewSeeds is how many of the sweep's seeds the banked and
// prefetched view checks run: conv and FC cases, one to three layers.
const provisionedViewSeeds = 8

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
			checkViewShapes(t, c, inlineSession, func(cfg *abnn2.Config) {
				cfg.Plan = p
				cfg.MiniONNKeyBits = planSweepKeyBits
			})
		})
	}
	if ran == 0 {
		t.Fatal("no seed of the planned sweep draws a SecureML or QUOTIENT layer")
	}
}
