package abnn2

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"abnn2/internal/bank"
	"abnn2/internal/core"
	"abnn2/internal/leakcheck"
	"abnn2/internal/plan"
)

// Remote offline session suite: the no-dealer replenishment path end to
// end — two genuinely separate stores filled over a pipe by the real
// two-party offline protocol, peer-banked online sessions provisioned
// from them, single-use across simulated crashes, and error-not-hang
// under link faults.

// durableParty is one side of a remote pair: its own store and bank.
type durableParty struct {
	store *BankStore
	bank  *Bank
}

func newDurableParty(t *testing.T, dir string, capacity int) *durableParty {
	t.Helper()
	st, err := OpenBankStore(BankStoreOptions{Dir: dir})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	b := NewBank(BankOptions{Capacity: capacity, Store: st})
	t.Cleanup(func() {
		b.Close()
		st.Close()
	})
	return &durableParty{store: st, bank: b}
}

// replenishPair runs one remote offline session over a pipe, the server
// side in a goroutine, and returns how many correlations the client
// stored. Both parties end up with their half in their own store.
func replenishPair(t *testing.T, qm *QuantizedModel, srv, cli *durableParty, batch, n int) int {
	t.Helper()
	id, err := BankModelID(qm)
	if err != nil {
		t.Fatal(err)
	}
	sconn, cconn := Pipe()
	scfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout, Bank: srv.bank}
	ccfg := Config{RingBits: 32, Seed: 0x0FF1, RoundTimeout: chaosRoundTimeout,
		Bank: cli.bank, BankModel: id}
	srvErr := make(chan error, 1)
	go func() {
		err := ServeOfflineSession(context.Background(), sconn, qm, scfg, cli.store.PeerID())
		sconn.Close()
		srvErr <- err
	}()
	got, err := ReplenishSession(context.Background(), cconn, qm.Arch(), ccfg,
		srv.store.PeerID(), batch, n)
	cconn.Close()
	if err != nil {
		t.Fatalf("replenish session: %v", err)
	}
	if serr := <-srvErr; serr != nil {
		t.Fatalf("offline serve session: %v", serr)
	}
	return got
}

// peerConfigs returns the online-session configs that provision from the
// two parties' peer-paired pools, OfflineBanked so any fallback fails
// loudly.
func peerConfigs(t *testing.T, qm *QuantizedModel, srv, cli *durableParty) (Config, Config) {
	t.Helper()
	id, err := BankModelID(qm)
	if err != nil {
		t.Fatal(err)
	}
	scfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout,
		Bank: srv.bank, OfflineMode: OfflineBanked}
	ccfg := Config{RingBits: 32, Seed: 0x0FF2, RoundTimeout: chaosRoundTimeout,
		Bank: cli.bank, OfflineMode: OfflineBanked, BankModel: id,
		BankPeer: srv.store.PeerID().String()}
	return scfg, ccfg
}

// TestRemoteOfflinePeerBanked: replenish over the wire, then serve a
// banked batch from the stored peer pairs and check the predictions
// against the plaintext model. No dealer exists anywhere in this test.
func TestRemoteOfflinePeerBanked(t *testing.T) {
	qm := chaosModel(t)
	base := leakcheck.Base()

	srv := newDurableParty(t, t.TempDir(), 4)
	cli := newDurableParty(t, t.TempDir(), 4)
	if got := replenishPair(t, qm, srv, cli, 2, 2); got != 2 {
		t.Fatalf("replenished %d correlations, want 2", got)
	}

	scfg, ccfg := peerConfigs(t, qm, srv, cli)
	for round := 0; round < 2; round++ {
		sconn, cconn := Pipe()
		srvErr, cliErr, classes := runParties(t, qm, sconn, cconn, scfg, ccfg)
		if srvErr != nil || cliErr != nil {
			t.Fatalf("round %d: peer-banked session failed: server=%v client=%v",
				round, srvErr, cliErr)
		}
		for k, x := range chaosInputs(2) {
			if classes[k] != qm.Predict(x) {
				t.Errorf("round %d: input %d misclassified", round, k)
			}
		}
	}
	// Both pairs are spent; a third banked-only session must fail dry,
	// not fall back and not hang.
	sconn, cconn := Pipe()
	_, cliErr, _ := runParties(t, qm, sconn, cconn, scfg, ccfg)
	if cliErr == nil {
		t.Fatal("third session succeeded on two stored pairs — double spend")
	}
	if !strings.Contains(cliErr.Error(), "dry") {
		t.Errorf("exhausted pool error %q does not mention dryness", cliErr)
	}
	leakcheck.Settle(t, base, "remote offline peer-banked")
}

// TestRemoteOfflineCrashSingleUse: a correlation spent before a crash
// must stay spent after both parties restart on the same directories
// (claim-before-use across SIGKILL, modeled by abandoning the first
// store generation without Close or Sync).
func TestRemoteOfflineCrashSingleUse(t *testing.T) {
	qm := chaosModel(t)
	srvDir, cliDir := t.TempDir(), t.TempDir()

	srv1 := newDurableParty(t, srvDir, 4)
	cli1 := newDurableParty(t, cliDir, 4)
	if got := replenishPair(t, qm, srv1, cli1, 2, 2); got != 2 {
		t.Fatalf("replenished %d correlations, want 2", got)
	}
	scfg, ccfg := peerConfigs(t, qm, srv1, cli1)
	sconn, cconn := Pipe()
	if srvErr, cliErr, _ := runParties(t, qm, sconn, cconn, scfg, ccfg); srvErr != nil || cliErr != nil {
		t.Fatalf("pre-crash session failed: server=%v client=%v", srvErr, cliErr)
	}

	// Crash both parties: new stores on the same dirs, the old ones left
	// un-synced. Every claim fsyncs the journal, so the spent pair's
	// claims are already on disk.
	srv2 := newDurableParty(t, srvDir, 4)
	cli2 := newDurableParty(t, cliDir, 4)
	if d := cli2.bank.Depth(srv2.store.PeerID(), bankSessionKeyForTest(t, qm, 2)); d != 1 {
		t.Fatalf("client peer depth after restart = %d, want 1 (one of two spent)", d)
	}
	scfg2, ccfg2 := peerConfigs(t, qm, srv2, cli2)
	sconn, cconn = Pipe()
	srvErr, cliErr, classes := runParties(t, qm, sconn, cconn, scfg2, ccfg2)
	if srvErr != nil || cliErr != nil {
		t.Fatalf("post-crash session failed: server=%v client=%v", srvErr, cliErr)
	}
	for k, x := range chaosInputs(2) {
		if classes[k] != qm.Predict(x) {
			t.Errorf("post-crash session misclassified input %d", k)
		}
	}
	// The surviving pair is now spent too: nothing left to double-spend.
	sconn, cconn = Pipe()
	if _, cliErr, _ := runParties(t, qm, sconn, cconn, scfg2, ccfg2); cliErr == nil {
		t.Fatal("session succeeded after every stored pair was spent")
	}
}

// bankSessionKeyForTest derives the session pool key the parties use.
func bankSessionKeyForTest(t *testing.T, qm *QuantizedModel, batch int) BankKey {
	t.Helper()
	id, err := BankModelID(qm)
	if err != nil {
		t.Fatal(err)
	}
	return BankKey{Model: id, Scheme: qm.Scheme(), RingBits: 32,
		Batch: batch, Backend: BankSessionBackend}
}

// TestRemoteOfflineServerAtCapacity: the server naks requests past its
// pool capacity before generation — the client gets fewer correlations
// with a nil error and one cheap round trip per refusal.
func TestRemoteOfflineServerAtCapacity(t *testing.T) {
	qm := chaosModel(t)
	srv := newDurableParty(t, t.TempDir(), 1)
	cli := newDurableParty(t, t.TempDir(), 4)
	if got := replenishPair(t, qm, srv, cli, 2, 3); got != 1 {
		t.Fatalf("replenished %d correlations against capacity 1, want 1", got)
	}
	if d := cli.bank.Depth(srv.store.PeerID(), bankSessionKeyForTest(t, qm, 2)); d != 1 {
		t.Fatalf("client stored %d halves, want 1", d)
	}
}

// hangupConn closes the underlying pipe after the Nth send, modeling a
// link cut mid-replenishment.
type hangupConn struct {
	Conn
	mu    sync.Mutex
	after int
	sent  int
}

func (c *hangupConn) Send(msg []byte) error {
	c.mu.Lock()
	c.sent++
	cut := c.sent > c.after
	c.mu.Unlock()
	if cut {
		c.Conn.Close()
		return errors.New("link cut")
	}
	return c.Conn.Send(msg)
}

// TestRemoteOfflineLinkCut: a connection dying mid-session must error
// both parties promptly — no hang, no goroutine leak, and the partial
// material that did land stays usable.
func TestRemoteOfflineLinkCut(t *testing.T) {
	qm := chaosModel(t)
	base := leakcheck.Base()

	for _, after := range []int{1, 3, 8} {
		srv := newDurableParty(t, t.TempDir(), 4)
		cli := newDurableParty(t, t.TempDir(), 4)
		id, err := BankModelID(qm)
		if err != nil {
			t.Fatal(err)
		}
		sconn, cconn := Pipe()
		cut := &hangupConn{Conn: cconn, after: after}
		scfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout, Bank: srv.bank}
		ccfg := Config{RingBits: 32, Seed: 0x0FF3, RoundTimeout: chaosRoundTimeout,
			Bank: cli.bank, BankModel: id}
		srvErr := make(chan error, 1)
		go func() {
			err := ServeOfflineSession(context.Background(), sconn, qm, scfg, cli.store.PeerID())
			sconn.Close()
			srvErr <- err
		}()
		_, rerr := ReplenishSession(context.Background(), cut, qm.Arch(), ccfg,
			srv.store.PeerID(), 2, 3)
		cconn.Close()
		if rerr == nil {
			t.Fatalf("after=%d: replenish survived a cut link", after)
		}
		select {
		case <-srvErr: // any outcome, as long as it returns
		case <-time.After(chaosWatchdog):
			t.Fatalf("after=%d: offline server hung on a cut link", after)
		}
	}
	leakcheck.Settle(t, base, "remote offline link cut")
}

// TestRemoteOfflineRequiresStore: both entry points refuse to run
// without a durable store — peer pairing with nowhere to persist would
// be silent data loss.
func TestRemoteOfflineRequiresStore(t *testing.T) {
	qm := chaosModel(t)
	memBank := NewBank(BankOptions{Capacity: 2})
	defer memBank.Close()
	sconn, cconn := Pipe()
	defer sconn.Close()
	defer cconn.Close()
	err := ServeOfflineSession(context.Background(), sconn, qm,
		Config{RingBits: 32, Bank: memBank}, BankPeerID{1})
	if err == nil || !strings.Contains(err.Error(), "durable store") {
		t.Fatalf("ServeOfflineSession without a store: %v", err)
	}
	_, err = ReplenishSession(context.Background(), cconn, qm.Arch(),
		Config{RingBits: 32, Bank: memBank, BankModel: "x"}, BankPeerID{1}, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "durable store") {
		t.Fatalf("ReplenishSession without a store: %v", err)
	}
}

// eventLog counts bank events by kind.
type eventLog struct {
	mu    sync.Mutex
	kinds map[string]int
}

func (l *eventLog) BankEvent(ev bank.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.kinds == nil {
		l.kinds = make(map[string]int)
	}
	l.kinds[ev.Kind]++
}

func (l *eventLog) count(kind string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.kinds[kind]
}

// TestPeerDryConsultsOnePool: a client set up for peer-paired draws asks
// its peer pool and nothing else. On a dry pool OfflineAuto runs the
// batch inline after exactly one peer-miss — the loopback pool is never
// tried, so it books no miss — and OfflineBanked fails with ErrBankDry.
func TestPeerDryConsultsOnePool(t *testing.T) {
	qm := chaosModel(t)
	srv := newDurableParty(t, t.TempDir(), 4)
	st, err := OpenBankStore(BankStoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	var events eventLog
	cbank := NewBank(BankOptions{Capacity: 4, Store: st, Observer: &events})
	t.Cleanup(func() {
		cbank.Close()
		st.Close()
	})
	scfg, ccfg := peerConfigs(t, qm, srv, &durableParty{store: st, bank: cbank})
	scfg.OfflineMode, ccfg.OfflineMode = OfflineAuto, OfflineAuto

	sconn, cconn := Pipe()
	srvErr, cliErr, classes := runParties(t, qm, sconn, cconn, scfg, ccfg)
	if srvErr != nil || cliErr != nil {
		t.Fatalf("OfflineAuto on a dry peer pool: server=%v client=%v", srvErr, cliErr)
	}
	for k, x := range chaosInputs(2) {
		if classes[k] != qm.Predict(x) {
			t.Errorf("input %d misclassified on the inline fallback", k)
		}
	}
	if pm, m := events.count("peer-miss"), events.count("miss"); pm != 1 || m != 0 {
		t.Errorf("dry peer pool booked %d peer-miss and %d loopback miss events, want 1 and 0", pm, m)
	}

	ccfg.OfflineMode = OfflineBanked
	sconn, cconn = Pipe()
	if _, cliErr, _ = runParties(t, qm, sconn, cconn, scfg, ccfg); !errors.Is(cliErr, ErrBankDry) {
		t.Errorf("OfflineBanked on a dry peer pool: %v, want ErrBankDry", cliErr)
	}
	if m := events.count("miss"); m != 0 {
		t.Errorf("OfflineBanked booked %d loopback miss events, want 0", m)
	}
}

// TestPlannedPeerDrawIsDry: remote offline sessions generate all-ABNN2
// material, so a client with both BankPeer and a Plan draws from that
// peer's pool for the plan, which nothing fills: OfflineAuto runs the
// batch inline after one peer-miss, OfflineBanked fails with ErrBankDry,
// and neither touches the plan-less halves stored for the same peer or
// the client's own loopback pools (whose server half this server could
// never claim).
func TestPlannedPeerDrawIsDry(t *testing.T) {
	qm := chaosModel(t)
	srv := newDurableParty(t, t.TempDir(), 4)
	st, err := OpenBankStore(BankStoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	var events eventLog
	cli := &durableParty{store: st, bank: NewBank(BankOptions{Capacity: 4, Store: st, Observer: &events})}
	t.Cleanup(func() {
		cli.bank.Close()
		st.Close()
	})
	if got := replenishPair(t, qm, srv, cli, 2, 1); got != 1 {
		t.Fatalf("replenished %d correlations, want 1", got)
	}
	scfg, ccfg := peerConfigs(t, qm, srv, cli)
	ccfg.Plan = plan.Uniform(core.BackendSecureML, len(qm.Arch().Layers))
	scfg.OfflineMode, ccfg.OfflineMode = OfflineAuto, OfflineAuto

	sconn, cconn := Pipe()
	srvErr, cliErr, classes := runParties(t, qm, sconn, cconn, scfg, ccfg)
	if srvErr != nil || cliErr != nil {
		t.Fatalf("OfflineAuto, planned, peer pool: server=%v client=%v", srvErr, cliErr)
	}
	for k, x := range chaosInputs(2) {
		if classes[k] != qm.Predict(x) {
			t.Errorf("input %d misclassified on the inline fallback", k)
		}
	}
	ccfg.OfflineMode = OfflineBanked
	sconn, cconn = Pipe()
	if _, cliErr, _ = runParties(t, qm, sconn, cconn, scfg, ccfg); !errors.Is(cliErr, ErrBankDry) {
		t.Errorf("OfflineBanked, planned, peer pool: %v, want ErrBankDry", cliErr)
	}
	if pm, ph, m := events.count("peer-miss"), events.count("peer-hit"), events.count("miss"); pm != 2 || ph != 0 || m != 0 {
		t.Errorf("planned peer draws booked %d peer-miss, %d peer-hit, %d loopback miss events, want 2, 0, 0", pm, ph, m)
	}
	if d := cli.bank.Depth(srv.store.PeerID(), bankSessionKeyForTest(t, qm, 2)); d != 1 {
		t.Errorf("plan-less peer pool depth = %d after planned draws, want 1", d)
	}
}
