package bank

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// The background replenisher's watermark/backoff machinery, over a bank
// on a real store.

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
		interval: 5 * time.Millisecond,
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
	if d := b.Depth(peer, key); d != 4 {
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
		interval:   time.Millisecond,
		minBackoff: 2 * time.Millisecond,
		maxBackoff: 20 * time.Millisecond,
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
