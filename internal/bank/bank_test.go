package bank

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
)

// testModel returns a small quantized MLP (GC junction + linear head),
// enough to exercise every correlation component (R0, V, Z1, U).
func testModel(t *testing.T) *nn.QuantizedModel {
	t.Helper()
	m := nn.NewModel(6, 5, 3)
	m.InitXavier(prg.New(prg.SeedFromInt(7)))
	s, err := quant.Parse("4(2,2)")
	if err != nil {
		t.Fatalf("parse scheme: %v", err)
	}
	return nn.Quantize(m, s, 6)
}

func sessionKey(t *testing.T, b *Bank, qm *nn.QuantizedModel, batch int) Key {
	t.Helper()
	id, err := b.RegisterModel(qm)
	if err != nil {
		t.Fatalf("register model: %v", err)
	}
	return Key{Model: id, Scheme: qm.Layers[0].Scheme.Name(), RingBits: 32, Batch: batch, Backend: SessionBackend}
}

// eventCounter counts bank events by kind.
type eventCounter struct {
	mu    sync.Mutex
	kinds map[string]int
}

func (c *eventCounter) BankEvent(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.kinds == nil {
		c.kinds = make(map[string]int)
	}
	c.kinds[ev.Kind]++
}

func (c *eventCounter) count(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kinds[kind]
}

// filled is one pool holding n correlations, ready to draw: the bank, the
// pool's key, the identity to draw its client halves under and the one to
// claim its server halves under, and the ids in the order they went in.
type filled struct {
	b           *Bank
	key         Key
	draw, claim PeerID
	ids         []uint64
	events      *eventCounter
}

// backings are the two things a pool can rest on. The bank has one pool
// kind, so every pool-level property is checked once over both.
var backings = []struct {
	name string
	fill func(t *testing.T, n int) filled
}{
	{"memory-loopback", fillLoopback},
	{"disk-peer", fillDiskPeer},
}

// fillLoopback stocks the memory-only loopback pool through the
// in-process filler.
func fillLoopback(t *testing.T, n int) filled {
	ev := &eventCounter{}
	b := New(Options{Capacity: n, Seed: 11, Observer: ev})
	t.Cleanup(func() { b.Close() })
	key := sessionKey(t, b, testModel(t), 2)
	// Asking for more than Capacity fills to Capacity.
	if err := b.Prewarm(key, n+2); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	// No refill behind the draws: the pool holds exactly n.
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	return filled{b: b, key: key, draw: LoopbackServer, claim: LoopbackClient, ids: ids, events: ev}
}

// fillDiskPeer stocks a remote peer's pool in an on-disk store through
// Put — one bank playing both parties, as the loopback filler does:
// client halves under the server's identity, server halves under the
// client's — and restarts the store before handing it over, so every
// half a case sees has been through the segment files and recovery.
func fillDiskPeer(t *testing.T, n int) filled {
	// Genuine pairs from a loopback filler, restocked as a remote peer's
	// (the wire protocol that normally does this is exercised in the root
	// package).
	src := fillLoopback(t, n)
	dir := t.TempDir()
	srvPeer, cliPeer := PeerID{1}, PeerID{2}
	st, _ := openRecovered(t, dir, StoreOptions{})
	b := New(Options{Capacity: n, Store: st})
	ids := make([]uint64, n)
	for i := range ids {
		id, c, ok := src.b.Draw(src.draw, src.key)
		if !ok {
			t.Fatalf("source draw %d missed", i)
		}
		s, ok := src.b.Claim(src.claim, id, src.key)
		if !ok {
			t.Fatalf("source claim %d missed", i)
		}
		ids[i] = NewCorrID()
		if err := b.Put(srvPeer, src.key, ids[i], EncodeClientCorr(c)); err != nil {
			t.Fatalf("put client half: %v", err)
		}
		if err := b.Put(cliPeer, src.key, ids[i], EncodeServerCorr(s)); err != nil {
			t.Fatalf("put server half: %v", err)
		}
	}
	b.Close()
	st.Close()

	ev := &eventCounter{}
	st, stats := openRecovered(t, dir, StoreOptions{})
	if stats.Records != 2*n {
		t.Fatalf("recovery found %d records, want %d", stats.Records, 2*n)
	}
	b = New(Options{Capacity: n, Store: st, Observer: ev})
	t.Cleanup(func() {
		b.Close()
		st.Close()
	})
	return filled{b: b, key: src.key, draw: srvPeer, claim: cliPeer, ids: ids, events: ev}
}

// TestPool runs the pool contract over both backings.
func TestPool(t *testing.T) {
	for _, bk := range backings {
		bk := bk
		t.Run(bk.name, func(t *testing.T) {
			t.Run("fifo-depth-capacity", func(t *testing.T) {
				f := bk.fill(t, 3)
				if d, cap := f.b.Depth(f.draw, f.key), f.b.Capacity(); d != 3 || cap != 3 {
					t.Fatalf("depth %d capacity %d after filling 3", d, cap)
				}
				for i, want := range f.ids {
					id, c, ok := f.b.Draw(f.draw, f.key)
					if !ok || id != want || c.Batch != f.key.Batch {
						t.Fatalf("draw %d = id %d ok %v, want id %d (FIFO)", i, id, ok, want)
					}
					if d := f.b.Depth(f.draw, f.key); d != 2-i {
						t.Fatalf("depth after draw %d = %d, want %d", i, d, 2-i)
					}
				}
				if _, _, ok := f.b.Draw(f.draw, f.key); ok {
					t.Fatal("a drained pool served a fourth half")
				}
				pre := f.draw.events()
				if h, m := f.events.count(pre+"hit"), f.events.count(pre+"miss"); h != 3 || m != 1 {
					t.Fatalf("%shit/%smiss events = %d/%d, want 3/1", pre, pre, h, m)
				}
			})

			t.Run("claim-single-use", func(t *testing.T) {
				f := bk.fill(t, 2)
				id, c, ok := f.b.Draw(f.draw, f.key)
				if !ok {
					t.Fatal("draw missed a warm pool")
				}
				// A claim under the wrong key or the wrong peer must miss
				// and leave the half where it is.
				wrong := f.key
				wrong.Batch = 3
				if _, ok := f.b.Claim(f.claim, id, wrong); ok {
					t.Fatal("claim with a mismatched key succeeded")
				}
				if _, ok := f.b.Claim(PeerID{9}, id, f.key); ok {
					t.Fatal("claim under another peer's identity succeeded")
				}
				if _, _, ok := f.b.Draw(PeerID{9}, f.key); ok {
					t.Fatal("pools leaked across peers")
				}
				s, ok := f.b.Claim(f.claim, id, f.key)
				if !ok || s.Batch != f.key.Batch {
					t.Fatalf("claim missed (ok=%v)", ok)
				}
				if _, ok := f.b.Claim(f.claim, id, f.key); ok {
					t.Fatal("second claim of the same id succeeded")
				}
				// The pair really is a correlation: U + V = W * R0 for layer 0.
				qm := testModel(t)
				p, err := sessionParams(qm, f.key, 0)
				if err != nil {
					t.Fatalf("params: %v", err)
				}
				want := p.Ring.MulMat(qm.Layers[0].WMat(p.Ring), c.R0)
				got := p.Ring.AddMat(s.U[0].Clone(), c.V[0])
				for i := range want.Data {
					if want.Data[i] != got.Data[i] {
						t.Fatalf("U+V != W*R0 at %d: %d vs %d", i, got.Data[i], want.Data[i])
					}
				}
				claims := f.events.count(f.claim.events() + "claim")
				misses := f.events.count("claim-miss") + f.events.count("peer-claim-miss")
				if claims != 1 || misses != 3 {
					t.Fatalf("claim/claim-miss events = %d/%d, want 1/3", claims, misses)
				}
			})

			t.Run("concurrent-draw-claim", func(t *testing.T) {
				const n, workers = 8, 4
				f := bk.fill(t, n)
				var mu sync.Mutex
				var got []uint64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							id, _, ok := f.b.Draw(f.draw, f.key)
							if !ok {
								return
							}
							if _, ok := f.b.Claim(f.claim, id, f.key); !ok {
								t.Errorf("claim of freshly drawn id %d missed", id)
							}
							if _, ok := f.b.Claim(f.claim, id, f.key); ok {
								t.Errorf("id %d claimed twice", id)
							}
							mu.Lock()
							got = append(got, id)
							mu.Unlock()
						}
					}()
				}
				wg.Wait()
				want := append([]uint64(nil), f.ids...)
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if len(got) != n {
					t.Fatalf("%d halves drawn from a pool of %d", len(got), n)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("drawn ids %v, want each of %v exactly once", got, want)
					}
				}
				if d := f.b.Depth(f.draw, f.key) + f.b.Depth(f.claim, f.key); d != 0 {
					t.Fatalf("%d halves left after every pair was spent", d)
				}
			})
		})
	}
}

// TestPoolDeadStoreDegrades: when the store can no longer record claims
// (its journal handle is gone), a remote peer's pool never hands out a
// half — the claim comes first — while the loopback pool in the same
// store, which has nothing on disk, keeps serving.
func TestPoolDeadStoreDegrades(t *testing.T) {
	f := fillDiskPeer(t, 1)
	loop := sessionKey(t, f.b, testModel(t), 1)
	if err := f.b.Prewarm(loop, 1); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	f.b.Store().journal.Close()
	if _, _, ok := f.b.Draw(f.draw, f.key); ok {
		t.Fatal("Draw handed out a half whose claim could not be journaled")
	}
	if _, ok := f.b.Claim(f.claim, f.ids[0], f.key); ok {
		t.Fatal("Claim handed out a half whose claim could not be journaled")
	}
	if n := f.events.count("persist-claim-drop"); n != 2 {
		t.Fatalf("%d persist-claim-drop events, want 2", n)
	}
	id, _, ok := f.b.Draw(LoopbackServer, loop)
	if !ok {
		t.Fatal("the loopback pool stopped serving when the store died")
	}
	if _, ok := f.b.Claim(LoopbackClient, id, loop); !ok {
		t.Fatal("the loopback claim missed when the store died")
	}
}

// TestPutNeedsDurableStore: halves generated with a remote peer are
// refused without somewhere durable to keep them, and nobody but the
// filler writes under the loopback identities.
func TestPutNeedsDurableStore(t *testing.T) {
	mem := New(Options{})
	defer mem.Close()
	key := sessionKey(t, mem, testModel(t), 1)
	if err := mem.Put(PeerID{1}, key, 1, []byte{kindClientHalf}); err == nil {
		t.Fatal("Put succeeded on a memory-only bank")
	}
	f := fillDiskPeer(t, 1)
	for _, p := range []PeerID{LoopbackServer, LoopbackClient} {
		if err := f.b.Put(p, f.key, 7, []byte{kindClientHalf}); err == nil {
			t.Fatalf("Put under reserved identity %s succeeded", p)
		}
	}
}

// TestLoopbackEvictionBound: server halves whose client half was drawn
// and never claimed are bounded by maxClaims per pool, oldest out first.
func TestLoopbackEvictionBound(t *testing.T) {
	const k = 3
	ev := &eventCounter{}
	b := New(Options{Capacity: maxClaims + k, Low: 1, Seed: 21, Observer: ev})
	defer b.Close()
	key := sessionKey(t, b, testModel(t), 1)
	if err := b.Prewarm(key, maxClaims+k); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 1; i <= maxClaims+k; i++ {
		if id, _, ok := b.Draw(LoopbackServer, key); !ok || id != uint64(i) {
			t.Fatalf("draw %d = id %d ok %v", i, id, ok)
		}
		want := i
		if want > maxClaims {
			want = maxClaims
		}
		if d := b.Depth(LoopbackClient, key) - b.Depth(LoopbackServer, key); d != want {
			t.Fatalf("%d halves parked after %d unclaimed draws, want %d", d, i, want)
		}
	}
	if n := ev.count("evict"); n != k {
		t.Fatalf("%d evict events, want exactly %d", n, k)
	}
	for id := uint64(1); id <= k; id++ {
		if _, ok := b.Claim(LoopbackClient, id, key); ok {
			t.Fatalf("evicted id %d still claimable", id)
		}
	}
	for _, id := range []uint64{k + 1, maxClaims + k} {
		if _, ok := b.Claim(LoopbackClient, id, key); !ok {
			t.Fatalf("id %d inside the bound is not claimable", id)
		}
	}
}

func TestLoopbackDistinctPairsPerDraw(t *testing.T) {
	f := fillLoopback(t, 2)
	_, h1, ok1 := f.b.Draw(f.draw, f.key)
	_, h2, ok2 := f.b.Draw(f.draw, f.key)
	if !ok1 || !ok2 {
		t.Fatalf("draws missed: %v %v", ok1, ok2)
	}
	same := true
	for i := range h1.R0.Data {
		if h1.R0.Data[i] != h2.R0.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("two draws returned identical input masks (correlation reuse)")
	}
}

func TestLoopbackDeterministicSeeding(t *testing.T) {
	draw := func() (*core.ClientCorr, *core.ServerCorr) {
		f := fillLoopback(t, 1)
		id, c, ok := f.b.Draw(f.draw, f.key)
		if !ok {
			t.Fatalf("draw missed")
		}
		s, ok := f.b.Claim(f.claim, id, f.key)
		if !ok {
			t.Fatalf("claim missed")
		}
		return c, s
	}
	c1, s1 := draw()
	c2, s2 := draw()
	for i := range c1.R0.Data {
		if c1.R0.Data[i] != c2.R0.Data[i] {
			t.Fatalf("seeded banks disagree on R0[%d]", i)
		}
	}
	for li := range s1.U {
		for i := range s1.U[li].Data {
			if s1.U[li].Data[i] != s2.U[li].Data[i] {
				t.Fatalf("seeded banks disagree on U[%d][%d]", li, i)
			}
		}
	}
}

func TestLoopbackWatermarkRefill(t *testing.T) {
	b := New(Options{Capacity: 4, Low: 2, Seed: 5})
	defer b.Close()
	key := sessionKey(t, b, testModel(t), 1)
	if err := b.Prewarm(key, 4); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, _, ok := b.Draw(LoopbackServer, key); !ok {
			t.Fatalf("draw %d missed", i)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for b.Depth(LoopbackServer, key) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("pool not replenished to capacity, depth %d", b.Depth(LoopbackServer, key))
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := b.Snapshot()
	if st.Refills < 7 { // 4 prewarm + >=3 background
		t.Fatalf("refills = %d, want >= 7", st.Refills)
	}
	if st.Hits != 3 || st.Depths[key] != 4 {
		t.Fatalf("hits = %d depth = %d, want 3 and 4", st.Hits, st.Depths[key])
	}
}

func TestLoopbackMissPaths(t *testing.T) {
	b := New(Options{Capacity: 2, Seed: 5})
	defer b.Close()
	key := sessionKey(t, b, testModel(t), 1)

	unknown := key
	unknown.Model = "feedfacefeedface"
	if _, _, ok := b.Draw(LoopbackServer, unknown); ok {
		t.Fatalf("draw for unregistered model succeeded")
	}
	badScheme := key
	badScheme.Scheme = "binary"
	if _, _, ok := b.Draw(LoopbackServer, badScheme); ok {
		t.Fatalf("draw with mismatched scheme succeeded")
	}
	badBatch := key
	badBatch.Batch = -1
	if _, _, ok := b.Draw(LoopbackServer, badBatch); ok {
		t.Fatalf("draw with negative batch succeeded")
	}
	// Dry pool: first touch misses but warms in the background.
	if _, _, ok := b.Draw(LoopbackServer, key); ok {
		t.Fatalf("draw on a cold pool succeeded")
	}
	deadline := time.Now().Add(30 * time.Second)
	for b.Depth(LoopbackServer, key) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("miss did not trigger background warming")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := b.Snapshot(); st.Misses < 4 {
		t.Fatalf("misses = %d, want >= 4", st.Misses)
	}
}

func TestBankDrainAndClose(t *testing.T) {
	b := New(Options{Capacity: 8, Low: 8, Seed: 4})
	qm := testModel(t)
	key := sessionKey(t, b, qm, 2)
	if err := b.Prewarm(key, 1); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	// Pop the only entry: depth 0 < low triggers a background refill of
	// up to 7 more pairs, which Close must be able to interrupt.
	if _, _, ok := b.Draw(LoopbackServer, key); !ok {
		t.Fatalf("draw missed")
	}
	done := make(chan struct{})
	go func() {
		_ = b.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("Close hung with a replenishment in flight")
	}
	if _, _, ok := b.Draw(LoopbackServer, key); ok {
		t.Fatalf("draw succeeded after Close")
	}
	if err := b.Prewarm(key, 1); err == nil {
		t.Fatalf("prewarm succeeded after Close")
	}
	if _, err := b.RegisterModel(qm); err == nil {
		t.Fatalf("register succeeded after Close")
	}
	// Close is idempotent.
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestBankDrainWaitsForRefill(t *testing.T) {
	b := New(Options{Capacity: 2, Low: 2, Seed: 6})
	defer b.Close()
	key := sessionKey(t, b, testModel(t), 1)
	if err := b.Prewarm(key, 1); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	if _, _, ok := b.Draw(LoopbackServer, key); !ok {
		t.Fatalf("draw missed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// After a drain no new refills start: depth stays wherever it landed.
	d := b.Depth(LoopbackServer, key)
	if _, _, ok := b.Draw(LoopbackServer, key); ok != (d > 0) {
		t.Fatalf("post-drain draw ok=%v with depth %d", ok, d)
	}
	time.Sleep(20 * time.Millisecond)
	if after := b.Depth(LoopbackServer, key); after > d {
		t.Fatalf("pool refilled after Drain: %d -> %d", d, after)
	}
}
