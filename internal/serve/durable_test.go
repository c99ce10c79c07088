package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"abnn2"
	"abnn2/internal/metrics"
)

// Durable serving suite: offline-class sessions (what their hello is
// refused for and how they are accounted), recovery-gated readiness, and
// the drain-time sync of the bank store.

// durableRuntime builds a runtime whose bank persists to a fresh store
// under dir, recovery already completed (synchronously, for test
// determinism the recovery gate is exercised separately).
func durableRuntime(t *testing.T, dir string, capacity int) (*Runtime, *abnn2.BankStore) {
	t.Helper()
	st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	b := abnn2.NewBank(abnn2.BankOptions{Capacity: capacity, Store: st})
	rt := testRuntime(t, Options{Session: abnn2.Config{Bank: b}})
	t.Cleanup(func() {
		b.Close()
		st.Close()
	})
	rt.mu.Lock()
	rt.store = st
	rt.mu.Unlock()
	return rt, st
}

// clientParty is the remote client's own store+bank for offline tests.
func clientParty(t *testing.T) (*abnn2.BankStore, *abnn2.Bank) {
	t.Helper()
	st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	b := abnn2.NewBank(abnn2.BankOptions{Capacity: 4, Store: st})
	t.Cleanup(func() {
		b.Close()
		st.Close()
	})
	return st, b
}

// offlineSession opens an offline-class session against rt in process —
// hello, then Dial onto the pool shared with the server under plan p (nil
// = none).
func offlineSession(t *testing.T, rt *Runtime, cliBank *abnn2.Bank, p abnn2.Plan) (*abnn2.Client, HandshakeInfo) {
	t.Helper()
	sconn, cconn := abnn2.Pipe()
	go func() { _ = rt.HandleConn(context.Background(), sconn, "inproc") }()
	info, err := clientHandshake(cconn, hello{V: helloVersion, Offline: true})
	if err != nil {
		cconn.Close()
		t.Fatalf("offline handshake: %v", err)
	}
	client, err := abnn2.Dial(cconn, info.Arch, abnn2.Config{RingBits: 32, RoundTimeout: testRoundTimeout,
		Bank: cliBank, BankModel: info.BankID, BankPeer: info.Peer, Plan: p})
	if err != nil {
		cconn.Close()
		t.Fatalf("offline session dial: %v", err)
	}
	return client, info
}

// TestOfflineHandshakeAndSession: an offline hello is admitted, carries
// the server's bank identity and peer id, and the pool its session
// prefetched then backs a peer-banked inference session through the
// normal handshake.
func TestOfflineHandshakeAndSession(t *testing.T) {
	rt, srvStore := durableRuntime(t, t.TempDir(), 4)
	_, cliBank := clientParty(t)

	client, info := offlineSession(t, rt, cliBank, nil)
	if info.BankID == "" || info.Peer != srvStore.PeerID().String() {
		t.Fatalf("offline handshake info incomplete: bank=%q peer=%q", info.BankID, info.Peer)
	}
	got, err := client.Prefetch(2, 2)
	client.Close()
	if err != nil || got != 2 {
		t.Fatalf("prefetch: got=%d err=%v", got, err)
	}

	// The stored pairs back real sessions through the normal handshake.
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		conn, info2, err := func() (abnn2.Conn, HandshakeInfo, error) {
			sc, cc := abnn2.Pipe()
			go func() { _ = rt.HandleConn(ctx, sc, "inproc") }()
			inf, err := clientHandshake(cc, hello{V: helloVersion})
			return cc, inf, err
		}()
		if err != nil {
			cancel()
			t.Fatalf("session %d handshake: %v", i, err)
		}
		if info2.BankID != info.BankID || info2.Peer != info.Peer {
			t.Fatalf("normal handshake bank info differs from offline handshake")
		}
		cfg := abnn2.Config{RingBits: 32, RoundTimeout: testRoundTimeout,
			Bank: cliBank, OfflineMode: abnn2.OfflineBanked,
			BankModel: info2.BankID, BankPeer: info2.Peer}
		client, err := abnn2.Dial(conn, info2.Arch, cfg)
		if err != nil {
			cancel()
			t.Fatalf("session %d dial: %v", i, err)
		}
		if _, err := client.Classify(testInputs(2)); err != nil {
			t.Fatalf("session %d classify (peer-banked): %v", i, err)
		}
		client.Close()
		cancel()
	}
}

// TestOfflineSessionPlanned: an offline session dialing with a plan
// prefetches under that plan, and a planned inference session then runs
// banked-only from the pool it filled and predicts like plaintext.
func TestOfflineSessionPlanned(t *testing.T) {
	rt, _ := durableRuntime(t, t.TempDir(), 4)
	_, cliBank := clientParty(t)
	p := testPlan()

	client, info := offlineSession(t, rt, cliBank, p)
	got, err := client.Prefetch(2, 1)
	client.Close()
	if err != nil || got != 1 {
		t.Fatalf("planned prefetch: got=%d err=%v", got, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, arch, err := rt.Connect(ctx, "")
	if err != nil {
		t.Fatalf("planned connect: %v", err)
	}
	client, err = abnn2.Dial(conn, arch, abnn2.Config{RingBits: 32, RoundTimeout: testRoundTimeout,
		Bank: cliBank, OfflineMode: abnn2.OfflineBanked, BankModel: info.BankID, BankPeer: info.Peer, Plan: p})
	if err != nil {
		conn.Close()
		t.Fatalf("planned dial: %v", err)
	}
	defer client.Close()
	classes, err := client.Classify(testInputs(2))
	if err != nil {
		t.Fatalf("planned classify from the prefetched pool: %v", err)
	}
	qm, _ := rt.Registry().Get("")
	for k, x := range testInputs(2) {
		if want := qm.Quant.Predict(x); classes[k] != want {
			t.Errorf("input %d: planned peer-banked %d, plaintext %d", k, classes[k], want)
		}
	}
}

// TestOfflineSessionAccounting: a replenishment session is booked under
// its own counters and kept out of everything that measures predictions —
// the SLO burn rate, the session-latency histogram, the session counters,
// abnn2_batches_total and abnn2_inference_seconds — while each of its
// store batches is one offline-replenish root span on the server's trace.
func TestOfflineSessionAccounting(t *testing.T) {
	_, b := clientParty(t) // a recovered store and its bank: the server's here
	reg := metrics.NewRegistry()
	m, sm, spans := NewMetrics(reg), metrics.NewServerMetrics(reg), abnn2.NewTraceCollector()
	// An SLO no session can meet: every session measured against it breaches.
	rt := testRuntime(t, Options{Metrics: m, SLO: time.Nanosecond,
		Session: abnn2.Config{Bank: b, Trace: abnn2.MultiTraceSink(sm, spans)}})
	_, cliBank := clientParty(t)

	client, _ := offlineSession(t, rt, cliBank, nil)
	got, err := client.Prefetch(2, 2)
	client.Close()
	if err != nil || got != 2 {
		t.Fatalf("prefetch: got=%d err=%v", got, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil { // the server side of the session has finished
		t.Fatal(err)
	}

	if total, failed := m.OfflineTotal.Value(), m.OfflineFailed.Value(); total != 1 || failed != 0 {
		t.Errorf("offline sessions: %d admitted, %d failed; want 1, 0", total, failed)
	}
	if n := m.SessionsTotal.With("m0").Value() + m.SessionsFailed.Value() + m.SLOSessions.Value() + m.SLOBreaches.With("m0").Value(); n != 0 {
		t.Errorf("the replenishment session moved inference session or SLO counters by %d", n)
	}
	if n := m.SessionLatency.With("m0").Count(); n != 0 {
		t.Errorf("the replenishment session was observed %d times in the session-latency histogram", n)
	}
	if n, obs := sm.Batches.Value(), sm.Inference.Count(); n != 0 || obs != 0 {
		t.Errorf("two store batches moved abnn2_batches_total by %d and abnn2_inference_seconds by %d", n, obs)
	}
	roots := map[string]int{}
	for _, sp := range abnn2.TraceRoots(spans.Spans()) {
		roots[sp.Name]++
	}
	if roots["offline-replenish"] != 2 || roots["batch"] != 0 || roots["admission"] != 0 {
		t.Errorf("server root spans %v, want two offline-replenish, no batch, no admission", roots)
	}
}

// TestOfflineHandshakeRejections: an offline hello is refused without a
// durable bank, permanently and before any session work.
func TestOfflineHandshakeRejections(t *testing.T) {
	t.Run("no-store", func(t *testing.T) {
		b := abnn2.NewBank(abnn2.BankOptions{Capacity: 2})
		defer b.Close()
		rt := testRuntime(t, Options{Session: abnn2.Config{Bank: b}})
		sconn, cconn := abnn2.Pipe()
		defer cconn.Close()
		go func() { _ = rt.HandleConn(context.Background(), sconn, "inproc") }()
		_, err := clientHandshake(cconn, hello{V: helloVersion, Offline: true})
		var rej *RejectError
		if !errors.As(err, &rej) || rej.Temporary() || rej.Rejection.Code != RejectBadHello {
			t.Fatalf("offline hello without a store: %v, want permanent %s", err, RejectBadHello)
		}
	})
}

// TestRecoveryGatesReadiness: /readyz answers 503 while the store's
// recovery scan runs, then flips ready; offline hellos during recovery
// are shed retryably.
func TestRecoveryGatesReadiness(t *testing.T) {
	dir := t.TempDir()
	// Seed the store with some persisted state so recovery has work.
	{
		st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recover(); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b := abnn2.NewBank(abnn2.BankOptions{Capacity: 2, Store: st})
	rt := testRuntime(t, Options{Session: abnn2.Config{Bank: b}})
	t.Cleanup(func() {
		b.Close()
		st.Close()
	})

	// Gate manually (StartRecovery's goroutine races the assertion), then
	// verify the reason strings on both sides of the flip.
	rt.recovered.Store(false)
	if ready, reason := rt.ReadyState(); ready || reason != "bank store recovery in progress" {
		t.Fatalf("ReadyState during recovery = %v %q", ready, reason)
	}
	sconn, cconn := abnn2.Pipe()
	go func() { _ = rt.HandleConn(context.Background(), sconn, "inproc") }()
	_, herr := clientHandshake(cconn, hello{V: helloVersion, Offline: true})
	cconn.Close()
	var rej *RejectError
	if !errors.As(herr, &rej) || !rej.Temporary() || rej.Rejection.Code != RejectBankDry || rej.Rejection.RetryAfter() <= 0 {
		t.Fatalf("offline hello during recovery: %v, want a hinted retryable %s", herr, RejectBankDry)
	}

	rt.StartRecovery(st)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ready, _ := rt.ReadyState(); ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("runtime never became ready after StartRecovery")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !st.Recovered() {
		t.Fatal("StartRecovery completed without recovering the store")
	}
}

// TestStoreOnlyRuntimeAdmitsBanked: a runtime whose bank only holds what
// remote clients leave in its store — the shape of abnn2-server — becomes
// ready as soon as the store has recovered and admits inference sessions
// under OfflineBanked, having generated no correlation: whether a batch is
// banked is the client's store's business. That holds with no loopback
// pool, and with a registered but dry one for the served model: the
// runtime looks at no loopback pool when it admits.
func TestStoreOnlyRuntimeAdmitsBanked(t *testing.T) {
	for _, dryPool := range []bool{false, true} {
		st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		b := abnn2.NewBank(abnn2.BankOptions{Capacity: 2, Store: st})
		t.Cleanup(func() {
			b.Close()
			st.Close()
		})
		reg := testRegistry(t, "m0")
		pools := 0
		if dryPool {
			qm := reg.Default().Quant
			id, err := abnn2.RegisterBankModel(b, qm)
			if err != nil {
				t.Fatal(err)
			}
			key := abnn2.BankKey{Model: id, Scheme: qm.Scheme(), RingBits: 32, Batch: 1, Backend: abnn2.BankSessionBackend}
			if err := b.Prewarm(key, 0); err != nil {
				t.Fatal(err)
			}
			pools = 1
		}
		rt := testRuntime(t, Options{Registry: reg, Session: abnn2.Config{Bank: b, OfflineMode: abnn2.OfflineBanked}})
		rt.StartRecovery(st)
		deadline := time.Now().Add(10 * time.Second)
		for {
			if ready, _ := rt.ReadyState(); ready {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("runtime never became ready")
			}
			time.Sleep(5 * time.Millisecond)
		}
		conn, _, err := rt.Connect(context.Background(), "")
		if err != nil {
			t.Fatalf("dry loopback pool %v: inference hello under OfflineBanked: %v", dryPool, err)
		}
		conn.Close()
		snap := b.Snapshot()
		if snap.Refills != 0 || len(snap.Depths) != pools {
			t.Fatalf("dry loopback pool %v: bank generated %d correlations into %d loopback pools, want none into %d",
				dryPool, snap.Refills, len(snap.Depths), pools)
		}
	}
}

// TestDrainFlushesJournal: Drain succeeds with no live connections and
// leaves the store's pool directories syncable (a second Sync after the
// drain's own succeeds).
func TestDrainFlushesJournal(t *testing.T) {
	rt, st := durableRuntime(t, t.TempDir(), 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("sync after drain: %v", err)
	}
	if ready, reason := rt.ReadyState(); ready || reason != "draining" {
		t.Fatalf("ReadyState after drain = %v %q", ready, reason)
	}
}

// TestOfflineHelloShedLikeInference: on a draining or saturated runtime
// an offline hello is shed with the codes an inference hello gets, in the
// same precedence — draining beats saturation.
func TestOfflineHelloShedLikeInference(t *testing.T) {
	st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	b := abnn2.NewBank(abnn2.BankOptions{Capacity: 2, Store: st})
	rt := testRuntime(t, Options{Session: abnn2.Config{Bank: b}, MaxSessions: 1})
	t.Cleanup(func() {
		b.Close()
		st.Close()
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// shed sends one hello of each kind and returns the rejection codes.
	shed := func() (inference, offline string) {
		t.Helper()
		codes := make([]string, 0, 2)
		for _, h := range []hello{
			{V: helloVersion},
			{V: helloVersion, Offline: true},
		} {
			sconn, cconn := abnn2.Pipe()
			go func() { _ = rt.HandleConn(ctx, sconn, "inproc") }()
			_, err := clientHandshake(cconn, h)
			cconn.Close()
			var rej *RejectError
			if !errors.As(err, &rej) || !rej.Temporary() || rej.Rejection.RetryAfter() <= 0 {
				t.Fatalf("hello %+v: %v, want a hinted retryable rejection", h, err)
			}
			codes = append(codes, rej.Rejection.Code)
		}
		return codes[0], codes[1]
	}

	// Occupy the only slot: admitted but never progressing (no Dial).
	hold, _, err := rt.Connect(ctx, "")
	if err != nil {
		t.Fatalf("holder connect: %v", err)
	}
	defer hold.Close()
	if inf, off := shed(); inf != RejectSaturated || off != RejectSaturated {
		t.Errorf("saturated runtime shed inference as %q, offline as %q", inf, off)
	}

	// Draining with the slot still held: draining wins for both.
	dctx, dcancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer dcancel()
	if err := rt.Drain(dctx); err == nil {
		t.Fatal("drain returned while the holder was still connected")
	}
	if inf, off := shed(); inf != RejectDraining || off != RejectDraining {
		t.Errorf("draining, saturated runtime shed inference as %q, offline as %q", inf, off)
	}
}
