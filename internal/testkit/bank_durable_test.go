package testkit

import (
	"fmt"
	"testing"

	"abnn2"
	"abnn2/internal/nn"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// The peer-banked arm of the differential sweep: correlations come from
// store batches between genuinely remote parties — two separate durable
// stores filled over a pipe by the real two-party offline protocol on an
// ordinary session (Serve + Dial + Prefetch), no in-process dealer
// anywhere — and the banked session then provisions from them
// (OfflineBanked, so a silent inline fallback fails the run).
// Bit-identity with the inline run and the plaintext reference certifies
// that the disk round trip and the peer-pairing protocol preserve the
// correlations exactly.

// durableSweepParty opens one party's store+bank under a test temp dir.
func durableSweepParty(t *testing.T, seed uint64) (*abnn2.BankStore, *abnn2.Bank) {
	t.Helper()
	st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	b := abnn2.NewBank(abnn2.BankOptions{Capacity: 1, Seed: seed, Store: st})
	t.Cleanup(func() {
		b.Close()
		st.Close()
	})
	return st, b
}

// runPeerBanked prefetches exactly one peer-paired correlation over an
// in-memory pipe and executes the case provisioned from it, both sessions
// under plan p (nil = all-ABNN2).
func runPeerBanked(t *testing.T, c *Case, optRelu bool, p *abnn2.Plan) (*ring.Mat, error) {
	t.Helper()
	data, err := nn.MarshalQuantized(c.Model)
	if err != nil {
		return nil, fmt.Errorf("marshal model: %w", err)
	}
	qm, err := abnn2.LoadQuantizedModel(data)
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	id, err := abnn2.BankModelID(qm)
	if err != nil {
		return nil, fmt.Errorf("model id: %w", err)
	}
	srvStore, srvBank := durableSweepParty(t, 0xE000+c.Seed)
	_, cliBank := durableSweepParty(t, 0xF000+c.Seed)
	// peered points a session's two configs at the pool the parties share.
	peered := func(server bool, cfg *abnn2.Config) {
		cfg.OptimizedReLU = optRelu
		cfg.OfflineMode = abnn2.OfflineBanked
		cfg.Plan = p
		cfg.MiniONNKeyBits = planSweepKeyBits
		if server {
			cfg.Bank = srvBank
		} else {
			cfg.Bank = cliBank
			cfg.BankModel = id
			cfg.BankPeer = srvStore.PeerID().String()
		}
	}

	sconn, cconn := transport.Pipe()
	scfg := abnn2.Config{RingBits: c.RingBits, Seed: 4*c.Seed + 3}
	ccfg := abnn2.Config{RingBits: c.RingBits, Seed: 4*c.Seed + 4}
	peered(true, &scfg)
	peered(false, &ccfg)
	srvErr := make(chan error, 1)
	go func() {
		_, err := abnn2.Serve(sconn, qm, scfg)
		srvErr <- err
	}()
	client, err := abnn2.Dial(cconn, qm.Arch(), ccfg)
	if err != nil {
		cconn.Close()
		<-srvErr
		return nil, fmt.Errorf("prefetch dial: %w", err)
	}
	got, err := client.Prefetch(c.Batch, 1)
	client.Close()
	if serr := <-srvErr; serr != nil {
		return nil, fmt.Errorf("prefetch server: %w", serr)
	}
	if err != nil {
		return nil, fmt.Errorf("prefetch: %w", err)
	}
	if got != 1 {
		return nil, fmt.Errorf("prefetched %d correlations, want 1", got)
	}
	return RunSecureCfg(c, 0, peered)
}

// TestPeerBankedEquivalenceSweep: 40 consecutive seeds (one full pass
// over the eta x ring grid, see TestSweepCoverage) under both ReLU
// variants — remote-replenished peer-banked vs inline vs plaintext.
func TestPeerBankedEquivalenceSweep(t *testing.T) {
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
					banked, err := runPeerBanked(t, c, v.opt, nil)
					if err != nil {
						t.Fatalf("%s: peer-banked run: %v", c.Desc(), err)
					}
					if banked.Rows != inline.Rows || banked.Cols != inline.Cols {
						t.Fatalf("%s: banked output %dx%d, inline %dx%d",
							c.Desc(), banked.Rows, banked.Cols, inline.Rows, inline.Cols)
					}
					for i := range inline.Data {
						if banked.Data[i] != inline.Data[i] {
							t.Fatalf("%s: output element %d: peer-banked %d, inline %d",
								c.Desc(), i, banked.Data[i], inline.Data[i])
						}
					}
					rg := ring.New(c.RingBits)
					for k, x := range c.Inputs {
						want := c.Model.ForwardRing(rg, c.Model.EncodeInput(rg, x))
						for i, w := range want {
							if got := banked.At(i, k); got != w {
								t.Fatalf("%s: output %d of sample %d: peer-banked %d, plaintext %d",
									c.Desc(), i, k, got, w)
							}
						}
					}
				})
			}
		})
	}
}
