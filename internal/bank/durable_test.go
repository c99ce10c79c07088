package bank

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"abnn2/internal/core"
)

// Durable-bank integration suite: the bank over a real store —
// peer-paired pools and the background replenisher's watermark/backoff
// machinery.

// durableBank builds a bank over a recovered store on dir, registering
// the test model, and returns bank, store, and the batch-2 session key.
func durableBank(t *testing.T, dir string, opts Options) (*Bank, *Store, Key) {
	t.Helper()
	st, _ := openRecovered(t, dir, StoreOptions{})
	opts.Store = st
	if opts.Seed == 0 {
		opts.Seed = 0xD0
	}
	b := New(opts)
	key := sessionKey(t, b, testModel(t), 2)
	return b, st, key
}

// TestBankPeerPairedRoundTrip: peer halves land in each party's own
// store — the client half under the server's peer id, the server half
// under the client's — and come back via AcquirePeer/ClaimPeer exactly
// once, including across a restart of both parties.
func TestBankPeerPairedRoundTrip(t *testing.T) {
	cliDir, srvDir := t.TempDir(), t.TempDir()
	cb1, cst1, key := durableBank(t, cliDir, Options{Capacity: 4})
	sb1, sst1, _ := durableBank(t, srvDir, Options{Capacity: 4})
	cliPeer, srvPeer := cst1.PeerID(), sst1.PeerID()

	// Manufacture a genuine pair via the dealer path, then repark it as a
	// peer-paired correlation (the codec round-trip is what matters here;
	// the remote wire protocol is exercised in the root package).
	if err := cb1.Prewarm(key, 1); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	id, clientHalf, ok := cb1.Acquire(key)
	if !ok {
		t.Fatal("acquire missed")
	}
	serverHalf, ok := cb1.Claim(id, key)
	if !ok {
		t.Fatal("claim missed")
	}
	ccorr, ok1 := clientHalf.(*core.ClientCorr)
	scorr, ok2 := serverHalf.(*core.ServerCorr)
	if !ok1 || !ok2 {
		t.Fatalf("halves are %T / %T", clientHalf, serverHalf)
	}
	cid := NewCorrID()
	if err := cb1.PutPeerClient(srvPeer, key, cid, ccorr); err != nil {
		t.Fatalf("put peer client: %v", err)
	}
	if err := sb1.PutPeerServer(cliPeer, key, cid, scorr); err != nil {
		t.Fatalf("put peer server: %v", err)
	}
	if d := cb1.PeerDepth(srvPeer, key); d != 1 {
		t.Fatalf("client-side peer depth = %d, want 1", d)
	}
	if d := sb1.PeerDepth(cliPeer, key); d != 1 {
		t.Fatalf("server-side peer depth = %d, want 1", d)
	}
	cb1.Close()
	cst1.Close()
	sb1.Close()
	sst1.Close()

	cb2, cst2, _ := durableBank(t, cliDir, Options{Capacity: 4})
	sb2, sst2, _ := durableBank(t, srvDir, Options{Capacity: 4})
	defer cb2.Close()
	defer cst2.Close()
	defer sb2.Close()
	defer sst2.Close()
	gid, gc, ok := cb2.AcquirePeer(srvPeer, key)
	if !ok {
		t.Fatal("peer acquire missed after restart")
	}
	if gid != cid {
		t.Fatalf("peer acquire returned id %d, want %d", gid, cid)
	}
	if gc.Batch != ccorr.Batch || len(gc.V) != len(ccorr.V) {
		t.Fatalf("client corr mangled: batch %d layers %d", gc.Batch, len(gc.V))
	}
	gs, ok := sb2.ClaimPeer(cliPeer, cid, key)
	if !ok {
		t.Fatal("peer claim missed after restart")
	}
	if gs.Batch != scorr.Batch || len(gs.U) != len(scorr.U) {
		t.Fatalf("server corr mangled: batch %d layers %d", gs.Batch, len(gs.U))
	}
	for li := range scorr.U {
		for i := range scorr.U[li].Data {
			if gs.U[li].Data[i] != scorr.U[li].Data[i] {
				t.Fatalf("server U[%d][%d] differs after disk round trip", li, i)
			}
		}
	}
	// Single use: both directions are spent.
	if _, _, ok := cb2.AcquirePeer(srvPeer, key); ok {
		t.Fatal("peer pool served the client half twice")
	}
	if _, ok := sb2.ClaimPeer(cliPeer, cid, key); ok {
		t.Fatal("peer pool served the server half twice")
	}
	// And a different peer sees nothing.
	var other PeerID
	other[7] = 1
	if _, _, ok := cb2.AcquirePeer(other, key); ok {
		t.Fatal("peer pools leaked across peers")
	}
}

// TestReplenisherWatermark: a pool below Low triggers Run with the
// deficit; a healthy pool does not.
func TestReplenisherWatermark(t *testing.T) {
	dir := t.TempDir()
	b, st, key := durableBank(t, dir, Options{Capacity: 4, Low: 2})
	defer b.Close()
	defer st.Close()
	var peer PeerID
	peer[0] = 7

	type call struct {
		key Key
		n   int
	}
	calls := make(chan call, 16)
	r, err := NewReplenisher(ReplenishOptions{
		Bank: b, Peer: peer, Keys: []Key{key},
		Interval: 5 * time.Millisecond,
		Run: func(ctx context.Context, k Key, n int) (int, error) {
			calls <- call{k, n}
			// Pretend n correlations landed by parking real records.
			for i := 0; i < n; i++ {
				id := NewCorrID()
				if err := st.Append(Scope{Peer: peer, Key: k}, id, []byte{1}); err != nil {
					return i, err
				}
			}
			return n, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()

	select {
	case c := <-calls:
		if c.key != key || c.n != 4 {
			t.Fatalf("first sweep ran (%v, %d), want (%v, 4)", c.key, c.n, key)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("empty pool below watermark never triggered replenishment")
	}
	// Pool is now at target: no further calls for a while.
	select {
	case c := <-calls:
		t.Fatalf("full pool triggered another replenishment (%v, %d)", c.key, c.n)
	case <-time.After(50 * time.Millisecond):
	}
	if d := b.PeerDepth(peer, key); d != 4 {
		t.Fatalf("peer depth = %d, want 4", d)
	}
}

// TestReplenisherBackoff: consecutive failures grow the backoff
// exponentially (with jitter in [d/2, 3d/2)) and a success resets it.
func TestReplenisherBackoff(t *testing.T) {
	dir := t.TempDir()
	b, st, key := durableBank(t, dir, Options{Capacity: 2})
	defer b.Close()
	defer st.Close()

	var mu sync.Mutex
	fails, succeedAfter := 0, 3
	r, err := NewReplenisher(ReplenishOptions{
		Bank: b, Keys: []Key{key},
		Interval:   time.Millisecond,
		MinBackoff: 2 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Run: func(ctx context.Context, k Key, n int) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			fails++
			if fails <= succeedAfter {
				return 0, fmt.Errorf("link down")
			}
			for i := 0; i < n; i++ {
				if err := st.Append(Scope{Key: k}, NewCorrID(), []byte{1}); err != nil {
					return i, err
				}
			}
			return n, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()

	deadline := time.Now().Add(10 * time.Second)
	sawBackoff := false
	for time.Now().Before(deadline) {
		if d := r.Backoff(); d > 0 {
			sawBackoff = true
		}
		mu.Lock()
		done := fails > succeedAfter
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawBackoff {
		t.Fatal("failures never raised the backoff")
	}
	// After the success the backoff must return to zero (healthy).
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && r.Backoff() != 0 {
		time.Sleep(time.Millisecond)
	}
	if d := r.Backoff(); d != 0 {
		t.Fatalf("backoff %v after a successful round, want 0", d)
	}
}

// TestReplenisherKick: a draw-miss style Kick wakes the loop without
// waiting for the poll interval.
func TestReplenisherKick(t *testing.T) {
	dir := t.TempDir()
	b, st, key := durableBank(t, dir, Options{Capacity: 2})
	defer b.Close()
	defer st.Close()

	ran := make(chan struct{}, 1)
	r, err := NewReplenisher(ReplenishOptions{
		Bank: b, Keys: []Key{key},
		Interval: time.Hour, // only a Kick can wake it
		Run: func(ctx context.Context, k Key, n int) (int, error) {
			select {
			case ran <- struct{}{}:
			default:
			}
			for i := 0; i < n; i++ {
				if err := st.Append(Scope{Key: k}, NewCorrID(), []byte{1}); err != nil {
					return i, err
				}
			}
			return n, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	r.Kick()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("Kick did not wake the replenisher")
	}
}

// TestBankStoreFailureDegrades: when the store dies mid-flight (simulated
// by closing it), the memory-only dealer pool keeps serving, and
// AcquirePeer never hands out a half whose claim could not be recorded.
func TestBankStoreFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	b, st, key := durableBank(t, dir, Options{Capacity: 2})
	defer b.Close()
	if err := b.Prewarm(key, 2); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	_, half, ok := b.Acquire(key)
	if !ok {
		t.Fatal("acquire missed a warm pool")
	}
	peer := PeerID{7}
	if err := b.PutPeerClient(peer, key, NewCorrID(), half.(*core.ClientCorr)); err != nil {
		t.Fatalf("put peer half: %v", err)
	}
	st.Close() // store gone; claims can no longer be journaled
	if _, _, ok := b.AcquirePeer(peer, key); ok {
		t.Fatal("AcquirePeer handed out a half after the store died")
	}
	if _, _, ok := b.Acquire(key); !ok {
		t.Fatal("the dealer pool stopped serving when the store died")
	}
}
