package abnn2

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"abnn2/internal/bank"
	"abnn2/internal/core"
	"abnn2/internal/leakcheck"
	"abnn2/internal/plan"
	"abnn2/internal/transport"
)

// Remote offline suite: the no-dealer replenishment path end to end — two
// genuinely separate stores filled over a pipe by store batches on an
// ordinary session (Serve + Dial + Prefetch), peer-banked online sessions
// provisioned from them, single-use across simulated crashes, and
// error-not-hang under link faults.

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

// prefetch runs one session over the pair of connections, Serve in a
// goroutine against Dial + Prefetch(batch, n) here, and returns how many
// correlations the client stored and both parties' errors. A party that
// hangs past the watchdog fails the test.
func prefetch(t *testing.T, qm *QuantizedModel, sconn, cconn Conn, scfg, ccfg Config, batch, n int) (got int, srvErr, cliErr error) {
	t.Helper()
	sch := make(chan error, 1)
	go func() {
		_, err := Serve(sconn, qm, scfg)
		sconn.Close()
		sch <- err
	}()
	cl, cliErr := Dial(cconn, qm.Arch(), ccfg)
	if cliErr == nil {
		got, cliErr = cl.Prefetch(batch, n)
		cl.Close()
	}
	cconn.Close()
	select {
	case srvErr = <-sch:
	case <-time.After(chaosWatchdog):
		t.Fatal("server hung after the client finished prefetching")
	}
	return got, srvErr, cliErr
}

// prefetchPair prefetches between the two parties over a fresh pipe under
// the configs their banked sessions use (any dry-pool policy: a store
// batch draws nothing) and fails the test on any error.
func prefetchPair(t *testing.T, qm *QuantizedModel, srv, cli *durableParty, batch, n int) int {
	t.Helper()
	scfg, ccfg := peerConfigs(t, qm, srv, cli)
	sconn, cconn := Pipe()
	got, srvErr, cliErr := prefetch(t, qm, sconn, cconn, scfg, ccfg, batch, n)
	if srvErr != nil || cliErr != nil {
		t.Fatalf("prefetch: server=%v client=%v", srvErr, cliErr)
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
	if got := prefetchPair(t, qm, srv, cli, 2, 2); got != 2 {
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
	if got := prefetchPair(t, qm, srv1, cli1, 2, 2); got != 2 {
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

// TestRemoteOfflineServerAtCapacity: the server naks store batches past
// its pool capacity before generation — the client gets fewer
// correlations with a nil error, and the refusal costs a round trip, not
// an offline phase: of the two store batches only the first ran one, on
// either side.
func TestRemoteOfflineServerAtCapacity(t *testing.T) {
	qm := chaosModel(t)
	srv := newDurableParty(t, t.TempDir(), 1)
	cli := newDurableParty(t, t.TempDir(), 4)
	scfg, ccfg := peerConfigs(t, qm, srv, cli)
	straces, ctraces := NewTraceCollector(), NewTraceCollector()
	scfg.Trace, ccfg.Trace = straces, ctraces
	sconn, cconn := Pipe()
	got, srvErr, cliErr := prefetch(t, qm, sconn, cconn, scfg, ccfg, 2, 3)
	if srvErr != nil || cliErr != nil || got != 1 {
		t.Fatalf("prefetch 3 against capacity 1: stored %d, server=%v client=%v; want 1", got, srvErr, cliErr)
	}
	if d := cli.bank.Depth(srv.store.PeerID(), bankSessionKeyForTest(t, qm, 2)); d != 1 {
		t.Fatalf("client stored %d halves, want 1", d)
	}
	for _, c := range []struct {
		party  string
		traces *TraceCollector
	}{{"server", straces}, {"client", ctraces}} {
		spans := c.traces.Spans()
		if r, o, b := countSpans(spans, "offline-replenish"), countSpans(spans, "offline"), countSpans(spans, "batch"); r != 2 || o != 1 || b != 0 {
			t.Errorf("%s: %d offline-replenish, %d offline, %d batch spans; want 2, 1, 0", c.party, r, o, b)
		}
	}
}

// TestRemoteOfflineLinkCut: a connection dying at any message of a store
// batch, from either side, must error out promptly — no hang, no goroutine
// leak — and never leave the client holding a half the server does not
// have (the server persists before it acks).
func TestRemoteOfflineLinkCut(t *testing.T) {
	qm := chaosModel(t)
	key := bankSessionKeyForTest(t, qm, 2)

	// sends runs n store batches fault-free and returns how many messages
	// each side sent: the difference between one batch and none is the
	// store batch's own messages, whatever set-up costs.
	sends := func(n int) (server, client int) {
		srv := newDurableParty(t, t.TempDir(), 4)
		cli := newDurableParty(t, t.TempDir(), 4)
		scfg, ccfg := peerConfigs(t, qm, srv, cli)
		sconn, cconn := Pipe()
		sf, cf := transport.Fault(sconn, transport.FaultPlan{}), transport.Fault(cconn, transport.FaultPlan{})
		if got, srvErr, cliErr := prefetch(t, qm, sf, cf, scfg, ccfg, 2, n); got != n || srvErr != nil || cliErr != nil {
			t.Fatalf("clean run of %d store batches: stored %d, server=%v client=%v", n, got, srvErr, cliErr)
		}
		return sf.Sends(), cf.Sends()
	}
	srvSetup, cliSetup := sends(0)
	srvAll, cliAll := sends(1)
	t.Logf("a store batch is %d server and %d client messages", srvAll-srvSetup, cliAll-cliSetup)
	if srvAll-srvSetup < 3 || cliAll-cliSetup < 2 {
		t.Fatalf("implausible store batch: %d server, %d client messages", srvAll-srvSetup, cliAll-cliSetup)
	}

	base := leakcheck.Base()
	for _, side := range []struct {
		name     string
		from, to int
	}{{"server", srvSetup, srvAll}, {"client", cliSetup, cliAll}} {
		for msg := side.from; msg < side.to; msg++ {
			srv := newDurableParty(t, t.TempDir(), 4)
			cli := newDurableParty(t, t.TempDir(), 4)
			scfg, ccfg := peerConfigs(t, qm, srv, cli)
			sconn, cconn := Pipe()
			cut := transport.FaultPlan{Class: transport.FaultDisconnect, Message: msg}
			if side.name == "server" {
				sconn = transport.Fault(sconn, cut)
			} else {
				cconn = transport.Fault(cconn, cut)
			}
			got, srvErr, cliErr := prefetch(t, qm, sconn, cconn, scfg, ccfg, 2, 1)
			if srvErr == nil && cliErr == nil {
				t.Errorf("%s cut at message %d went unnoticed", side.name, msg)
			}
			sd, cd := srv.bank.Depth(cli.store.PeerID(), key), cli.bank.Depth(srv.store.PeerID(), key)
			if cd != got || cd > sd {
				t.Errorf("%s cut at message %d: client reports %d stored and holds %d halves, server holds %d",
					side.name, msg, got, cd, sd)
			}
		}
	}
	leakcheck.Settle(t, base, "remote offline link cut")
}

// TestRemoteOfflineRequiresStore: a server with nowhere to keep a half, or
// a policy against banked batches, naks a store batch before generating
// anything; a client that was not dialled onto a peer pool cannot prefetch
// at all — peer pairing with nowhere to persist would be silent data loss.
func TestRemoteOfflineRequiresStore(t *testing.T) {
	qm := chaosModel(t)
	cli := newDurableParty(t, t.TempDir(), 4)
	memBank := NewBank(BankOptions{Capacity: 2})
	defer memBank.Close()
	stored := newDurableParty(t, t.TempDir(), 4)
	for _, c := range []struct {
		name string
		scfg Config
	}{
		{"no bank", Config{RingBits: 32}},
		{"memory-only bank", Config{RingBits: 32, Bank: memBank}},
		{"inline-only policy", Config{RingBits: 32, Bank: stored.bank, OfflineMode: OfflineInline}},
	} {
		_, ccfg := peerConfigs(t, qm, stored, cli)
		traces := NewTraceCollector()
		ccfg.Trace = traces
		sconn, cconn := Pipe()
		got, srvErr, cliErr := prefetch(t, qm, sconn, cconn, c.scfg, ccfg, 2, 2)
		if got != 0 || srvErr != nil || cliErr != nil {
			t.Errorf("%s: stored %d, server=%v client=%v; want a clean refusal", c.name, got, srvErr, cliErr)
		}
		if r, o := countSpans(traces.Spans(), "offline-replenish"), countSpans(traces.Spans(), "offline"); r != 1 || o != 0 {
			t.Errorf("%s: %d store batches attempted, %d offline phases run; want 1 and 0", c.name, r, o)
		}
	}
	if d := stored.bank.Depth(cli.store.PeerID(), bankSessionKeyForTest(t, qm, 2)); d != 0 {
		t.Errorf("the inline-only server stored %d halves", d)
	}

	id, err := BankModelID(qm)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ccfg Config
	}{
		{"inline client", Config{RingBits: 32}},
		{"loopback client", Config{RingBits: 32, Bank: memBank, BankModel: id}},
	} {
		sconn, cconn := Pipe()
		got, _, cliErr := prefetch(t, qm, sconn, cconn, Config{RingBits: 32, Bank: stored.bank}, c.ccfg, 2, 1)
		if got != 0 || cliErr == nil || !strings.Contains(cliErr.Error(), "BankPeer") {
			t.Errorf("%s: Prefetch stored %d, err %v; want an error naming Config.BankPeer", c.name, got, cliErr)
		}
	}
	sconn, cconn := Pipe()
	defer sconn.Close()
	defer cconn.Close()
	_, err = Dial(cconn, qm.Arch(), Config{RingBits: 32, Bank: memBank, BankModel: id, BankPeer: BankPeerID{1}.String()})
	if err == nil || !strings.Contains(err.Error(), "durable store") {
		t.Errorf("Dial with BankPeer and no store: %v", err)
	}
}

// TestPrefetchRejectsBadReplies: whatever a server sends in place of the
// go/nak decision — another correlation's id, a short or long frame, a
// kind only a client ever sent, the ack before the go — fails the
// prefetch with an ordinary error, stores nothing and does not wait for
// more.
func TestPrefetchRejectsBadReplies(t *testing.T) {
	qm := chaosModel(t)
	reply := func(kind byte, id uint64) []byte { return offlineFrame{kind: kind, id: id}.append(nil) }
	for _, c := range []struct {
		name  string
		forge func(id uint64) []byte
	}{
		{"wrong id", func(id uint64) []byte { return reply(offlineGo, id+1) }},
		{"short", func(id uint64) []byte { return reply(offlineGo, id)[:8] }},
		{"long", func(id uint64) []byte { return append(reply(offlineGo, id), 0) }},
		{"client-only kind", func(id uint64) []byte { return reply('R', id) }},
		{"ack before go", func(id uint64) []byte { return reply(offlineAck, id) }},
	} {
		srv := newDurableParty(t, t.TempDir(), 4)
		cli := newDurableParty(t, t.TempDir(), 4)
		scfg, ccfg := peerConfigs(t, qm, srv, cli)
		sconn, cconn := Pipe()
		sch := make(chan error, 1)
		go func() {
			sch <- func() error {
				s, err := NewServer(sconn, qm, scfg)
				if err != nil {
					return err
				}
				defer s.Close()
				raw, err := s.sc.recvIdle()
				if err != nil {
					return err
				}
				a, err := parseAnnouncement(raw)
				if err != nil || !a.store {
					return fmt.Errorf("announcement %x parsed as %+v, %v; want a store batch", raw, a, err)
				}
				return s.sc.Send(c.forge(a.corr))
			}()
		}()
		cl, err := Dial(cconn, qm.Arch(), ccfg)
		if err != nil {
			t.Fatalf("%s: dial: %v", c.name, err)
		}
		got, err := cl.Prefetch(2, 1)
		cl.Close()
		var pe *PanicError
		if got != 0 || err == nil || errors.As(err, &pe) {
			t.Errorf("%s: Prefetch stored %d, err %v; want an ordinary error", c.name, got, err)
		}
		if serr := <-sch; serr != nil {
			t.Errorf("%s: forging server: %v", c.name, serr)
		}
		if d := cli.bank.Depth(srv.store.PeerID(), bankSessionKeyForTest(t, qm, 2)); d != 0 {
			t.Errorf("%s: client stored %d halves", c.name, d)
		}
	}
}

// TestPrefetchThenClassifySameSession: store batches and predictions mix
// on one session. Two store batches leave nothing installed on either
// engine — an online phase right after them has no offline state to run
// on — and the prediction that follows draws one of the two stored pairs
// and equals plaintext.
func TestPrefetchThenClassifySameSession(t *testing.T) {
	qm := chaosModel(t)
	srv := newDurableParty(t, t.TempDir(), 4)
	cli := newDurableParty(t, t.TempDir(), 4)
	scfg, ccfg := peerConfigs(t, qm, srv, cli)
	key := bankSessionKeyForTest(t, qm, 2)

	sconn, cconn := Pipe()
	sch := make(chan error, 1)
	go func() {
		sch <- func() error {
			s, err := NewServer(sconn, qm, scfg)
			if err != nil {
				return err
			}
			defer s.Close()
			for i := 0; i < 2; i++ {
				if err := s.HandleBatch(); err != nil {
					return err
				}
			}
			if err := s.eng.Online(); err == nil || !strings.Contains(err.Error(), "without Offline") {
				return fmt.Errorf("server engine after two store batches: Online = %v, want no offline state", err)
			}
			return s.HandleBatch()
		}()
	}()
	cl, err := Dial(cconn, qm.Arch(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got, err := cl.Prefetch(2, 2); got != 2 || err != nil {
		t.Fatalf("prefetch on the session: stored %d, err %v", got, err)
	}
	X, err := cl.encodeBatch(chaosInputs(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.eng.Predict(X); err == nil || !strings.Contains(err.Error(), "without Offline") {
		t.Fatalf("client engine after two store batches: Predict = %v, want no offline state", err)
	}
	classes, err := cl.Classify(chaosInputs(2))
	if err != nil {
		t.Fatalf("classify after prefetching on the same session: %v", err)
	}
	for k, x := range chaosInputs(2) {
		if classes[k] != qm.Predict(x) {
			t.Errorf("input %d misclassified", k)
		}
	}
	if err := <-sch; err != nil {
		t.Fatalf("server: %v", err)
	}
	if sd, cd := srv.bank.Depth(cli.store.PeerID(), key), cli.bank.Depth(srv.store.PeerID(), key); sd != 1 || cd != 1 {
		t.Errorf("after the prediction the pools hold %d server and %d client halves, want 1 and 1", sd, cd)
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

// TestPlannedPrefetchFillsPlanPool: a planned client's Prefetch generates
// under its plan and fills the pool keyed by that plan's fingerprint, on
// both sides. The planned draw that follows hits it and predicts like
// plaintext; a plan-less draw for the same peer, model and batch is never
// served from it; and a server that requires a plan refuses a plan-less
// store batch like any other plan-less batch.
func TestPlannedPrefetchFillsPlanPool(t *testing.T) {
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
	p := plan.Uniform(core.BackendSecureML, len(qm.Arch().Layers))
	plain := bankSessionKeyForTest(t, qm, 2)
	planned := plain
	planned.Backend = bank.PlanBackend(p.Fingerprint())

	scfg, ccfg := peerConfigs(t, qm, srv, cli)
	ccfg.Plan = p
	sconn, cconn := Pipe()
	if got, srvErr, cliErr := prefetch(t, qm, sconn, cconn, scfg, ccfg, 2, 2); got != 2 || srvErr != nil || cliErr != nil {
		t.Fatalf("planned prefetch: stored %d, server=%v client=%v", got, srvErr, cliErr)
	}
	for _, c := range []struct {
		party string
		b     *Bank
		peer  BankPeerID
	}{{"server", srv.bank, cli.store.PeerID()}, {"client", cli.bank, srv.store.PeerID()}} {
		if d, pd := c.b.Depth(c.peer, planned), c.b.Depth(c.peer, plain); d != 2 || pd != 0 {
			t.Fatalf("%s holds %d halves in the plan's pool and %d in the plan-less one, want 2 and 0", c.party, d, pd)
		}
	}

	sconn, cconn = Pipe()
	srvErr, cliErr, classes := runParties(t, qm, sconn, cconn, scfg, ccfg)
	if srvErr != nil || cliErr != nil {
		t.Fatalf("OfflineBanked, planned, prefetched pool: server=%v client=%v", srvErr, cliErr)
	}
	for k, x := range chaosInputs(2) {
		if classes[k] != qm.Predict(x) {
			t.Errorf("input %d misclassified from the plan's pool", k)
		}
	}
	if ph, pm := events.count("peer-hit"), events.count("peer-miss"); ph != 1 || pm != 0 {
		t.Errorf("planned draw booked %d peer-hit and %d peer-miss events, want 1 and 0", ph, pm)
	}

	ccfg.Plan = nil
	sconn, cconn = Pipe()
	if _, cliErr, _ = runParties(t, qm, sconn, cconn, scfg, ccfg); !errors.Is(cliErr, ErrBankDry) {
		t.Errorf("OfflineBanked, plan-less, only the plan's pool stocked: %v, want ErrBankDry", cliErr)
	}
	if d := cli.bank.Depth(srv.store.PeerID(), planned); d != 1 {
		t.Errorf("the plan's pool holds %d halves after a plan-less draw, want 1", d)
	}

	scfg.Plan = p
	sconn, cconn = Pipe()
	got, srvErr, cliErr := prefetch(t, qm, sconn, cconn, scfg, ccfg, 2, 1)
	if got != 0 || cliErr == nil || srvErr == nil || !strings.Contains(srvErr.Error(), "requires one") {
		t.Errorf("plan-less store batch against a server requiring a plan: stored %d, server=%v client=%v", got, srvErr, cliErr)
	}
	if d := srv.bank.Depth(cli.store.PeerID(), plain); d != 0 {
		t.Errorf("the refusing server stored %d plan-less halves", d)
	}
}
