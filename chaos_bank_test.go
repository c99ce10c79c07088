package abnn2

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"abnn2/internal/bank"
	"abnn2/internal/leakcheck"
)

// Bank chaos suite: banked provisioning under hostile conditions — dry
// pools, forged correlation IDs, shutdown racing a Prewarm and live
// sessions. The invariant is the same error-or-fallback discipline the
// transport chaos tests enforce: a session either completes correctly
// or returns an error promptly; nothing hangs, nothing leaks.

// chaosBank builds a bank over the chaos model, returning the bank, the
// registered model ID, and the pool key for the given batch size.
func chaosBank(t *testing.T, qm *QuantizedModel, opts BankOptions) (*Bank, string, func(batch int) BankKey) {
	t.Helper()
	if opts.Seed == 0 {
		opts.Seed = 0xC0A5
	}
	b := NewBank(opts)
	id, err := RegisterBankModel(b, qm)
	if err != nil {
		b.Close()
		t.Fatalf("register bank model: %v", err)
	}
	return b, id, func(batch int) BankKey {
		return BankKey{Model: id, Scheme: qm.Scheme(), RingBits: 32,
			Batch: batch, Backend: BankSessionBackend}
	}
}

// TestChaosBankDryPool: a cold pool under OfflineBanked must fail the
// batch immediately — and under OfflineAuto must fall back to the
// inline offline phase and still classify correctly. The miss leaves
// nothing running behind it.
func TestChaosBankDryPool(t *testing.T) {
	qm := chaosModel(t)
	base := leakcheck.Base()

	t.Run("banked-errors", func(t *testing.T) {
		b, id, _ := chaosBank(t, qm, BankOptions{Capacity: 2})
		defer b.Close()
		sconn, cconn := Pipe()
		scfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout,
			Bank: b, OfflineMode: OfflineBanked}
		ccfg := Config{RingBits: 32, Seed: 77, RoundTimeout: chaosRoundTimeout,
			Bank: b, OfflineMode: OfflineBanked, BankModel: id}
		srvErr, cliErr, _ := runParties(t, qm, sconn, cconn, scfg, ccfg)
		if cliErr == nil {
			t.Fatal("dry pool under OfflineBanked completed a batch")
		}
		if !strings.Contains(cliErr.Error(), "dry") {
			t.Errorf("client error %q does not mention the dry pool", cliErr)
		}
		// The server never saw a batch; a clean hang-up is not an error.
		if srvErr != nil {
			t.Logf("server saw: %v", srvErr)
		}
	})

	t.Run("auto-falls-back", func(t *testing.T) {
		b, id, _ := chaosBank(t, qm, BankOptions{Capacity: 2})
		defer b.Close()
		sconn, cconn := Pipe()
		scfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout,
			Bank: b, OfflineMode: OfflineAuto}
		ccfg := Config{RingBits: 32, Seed: 78, RoundTimeout: chaosRoundTimeout,
			Bank: b, OfflineMode: OfflineAuto, BankModel: id}
		srvErr, cliErr, classes := runParties(t, qm, sconn, cconn, scfg, ccfg)
		if srvErr != nil || cliErr != nil {
			t.Fatalf("auto fallback failed: server=%v client=%v", srvErr, cliErr)
		}
		for k, x := range chaosInputs(2) {
			if classes[k] != qm.Predict(x) {
				t.Errorf("fallback run misclassified input %d", k)
			}
		}
	})

	leakcheck.Settle(t, base, "bank dry pool")
}

// forgeIDConn corrupts the first banked announcement it carries: the
// correlation ID of the 13-byte flight is flipped, simulating a client
// claiming a correlation it never drew.
type forgeIDConn struct {
	Conn
	mu    sync.Mutex
	fired bool
}

func (c *forgeIDConn) Send(msg []byte) error {
	c.mu.Lock()
	if !c.fired && len(msg) == 13 {
		c.fired = true
		forged := append([]byte(nil), msg...)
		forged[5] ^= 0xFF // low byte of the correlation ID
		msg = forged
	}
	c.mu.Unlock()
	return c.Conn.Send(msg)
}

func (c *forgeIDConn) Fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// TestChaosBankForgedCorrelationID: a tampered announcement must be
// rejected by the server as an unknown correlation — an immediate
// protocol error on both sides, never a hang, and the honestly parked
// server half stays claimable by nobody but its owner.
func TestChaosBankForgedCorrelationID(t *testing.T) {
	qm := chaosModel(t)
	base := leakcheck.Base()

	b, id, keyFor := chaosBank(t, qm, BankOptions{Capacity: 1})
	defer b.Close()
	if err := b.Prewarm(keyFor(2), 1); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	sconn, cconn := Pipe()
	forged := &forgeIDConn{Conn: cconn}
	scfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout,
		Bank: b, OfflineMode: OfflineBanked}
	ccfg := Config{RingBits: 32, Seed: 79, RoundTimeout: chaosRoundTimeout,
		Bank: b, OfflineMode: OfflineBanked, BankModel: id}
	srvErr, cliErr, _ := runParties(t, qm, sconn, forged, scfg, ccfg)
	if !forged.Fired() {
		t.Fatal("no banked announcement crossed the wire")
	}
	if srvErr == nil {
		t.Fatal("server accepted a forged correlation ID")
	}
	if !strings.Contains(srvErr.Error(), "correlation") {
		t.Errorf("server error %q does not mention the correlation claim", srvErr)
	}
	if cliErr == nil {
		t.Error("client completed a batch the server rejected")
	}
	leakcheck.Settle(t, base, "forged correlation ID")
}

// firstRefill signals the first pair a Prewarm stores.
type firstRefill chan struct{}

func (c firstRefill) BankEvent(ev bank.Event) {
	if ev.Kind == "refill" {
		select {
		case c <- struct{}{}:
		default:
		}
	}
}

// TestChaosBankCloseMidReplenish: a Close that lands while Prewarm fills
// a pool must cancel the in-flight generator pair and return promptly;
// the Prewarm returns an error, and no goroutine is left behind.
func TestChaosBankCloseMidReplenish(t *testing.T) {
	qm := chaosModel(t)
	base := leakcheck.Base()

	filled := make(firstRefill, 1)
	b, _, keyFor := chaosBank(t, qm, BankOptions{Capacity: 8, Observer: filled})
	prewarmed := make(chan error, 1)
	go func() { prewarmed <- b.Prewarm(keyFor(2), b.Capacity()) }()
	select {
	case <-filled: // one pair in, seven to go: generation is in flight
	case err := <-prewarmed:
		t.Fatalf("Prewarm returned %v before its first pair", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	watchdog := time.After(chaosWatchdog)
	for closed != nil || prewarmed != nil {
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("close: %v", err)
			}
			closed = nil
		case err := <-prewarmed:
			if err == nil {
				t.Fatal("Prewarm filled the pool across a Close")
			}
			prewarmed = nil
		case <-watchdog:
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("Close or Prewarm hung on an interrupted generation:\n%s", buf[:n])
		}
	}
	leakcheck.Settle(t, base, "close mid-prewarm")
}

// TestChaosBankConcurrentDrain: several OfflineAuto sessions race a
// Drain + Close. Sessions that draw before the close use the bank;
// sessions that lose the race fall back inline — every one must finish
// correctly, and the shutdown must not deadlock against live draws.
func TestChaosBankConcurrentDrain(t *testing.T) {
	qm := chaosModel(t)
	base := leakcheck.Base()

	b, id, keyFor := chaosBank(t, qm, BankOptions{Capacity: 2})
	if err := b.Prewarm(keyFor(2), 2); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	const sessions = 3
	var wg sync.WaitGroup
	errs := make([]error, 2*sessions)
	misses := make([][]int, sessions)
	for i := 0; i < sessions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sconn, cconn := Pipe()
			scfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout,
				Bank: b, OfflineMode: OfflineAuto}
			ccfg := Config{RingBits: 32, Seed: 90 + uint64(i), RoundTimeout: chaosRoundTimeout,
				Bank: b, OfflineMode: OfflineAuto, BankModel: id}
			srvErr, cliErr, classes := runParties(t, qm, sconn, cconn, scfg, ccfg)
			errs[2*i], errs[2*i+1] = srvErr, cliErr
			if cliErr == nil {
				for k, x := range chaosInputs(2) {
					if classes[k] != qm.Predict(x) {
						misses[i] = append(misses[i], k)
					}
				}
			}
		}()
	}
	// Shut the bank down while the sessions are mid-provision.
	time.Sleep(5 * time.Millisecond)
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	drainErr := b.Drain(dctx)
	cancel()
	closeErr := b.Close()
	wg.Wait()
	if drainErr != nil {
		t.Errorf("drain: %v", drainErr)
	}
	if closeErr != nil {
		t.Errorf("close: %v", closeErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d party %d: %v", i/2, i%2, err)
		}
	}
	for i, m := range misses {
		if len(m) > 0 {
			t.Errorf("session %d misclassified inputs %v", i, m)
		}
	}
	leakcheck.Settle(t, base, "concurrent drain")
}

// TestChaosBankDryConcurrent: N parallel strict-banked sessions race a
// capacity-1 pool holding one pair. Exactly one session wins the draw and
// completes correctly; every other fails with the typed ErrBankDry — the
// misses fill nothing — and none hangs or leaks. The same race under
// OfflineAuto must complete every session via inline fallback.
func TestChaosBankDryConcurrent(t *testing.T) {
	qm := chaosModel(t)
	base := leakcheck.Base()

	const sessions = 4

	t.Run("banked-typed-error-or-success", func(t *testing.T) {
		b, id, keyFor := chaosBank(t, qm, BankOptions{Capacity: 1})
		defer b.Close()
		if err := b.Prewarm(keyFor(2), 1); err != nil {
			t.Fatalf("prewarm: %v", err)
		}
		var wg sync.WaitGroup
		cliErrs := make([]error, sessions)
		classes := make([][]int, sessions)
		for i := 0; i < sessions; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				sconn, cconn := Pipe()
				scfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout,
					Bank: b, OfflineMode: OfflineBanked}
				ccfg := Config{RingBits: 32, Seed: 300 + uint64(i), RoundTimeout: chaosRoundTimeout,
					Bank: b, OfflineMode: OfflineBanked, BankModel: id}
				_, cliErrs[i], classes[i] = runParties(t, qm, sconn, cconn, scfg, ccfg)
			}()
		}
		wg.Wait()
		completed := 0
		for i, err := range cliErrs {
			switch {
			case err == nil:
				completed++
				for k, x := range chaosInputs(2) {
					if classes[i][k] != qm.Predict(x) {
						t.Errorf("session %d misclassified input %d", i, k)
					}
				}
			case errors.Is(err, ErrBankDry):
				// The typed retryable outcome — what the serve layer turns
				// into a bank-dry rejection.
			default:
				t.Errorf("session %d failed without the typed dry error: %v", i, err)
			}
		}
		if completed != 1 {
			t.Errorf("%d sessions completed on one prewarmed correlation, want exactly 1", completed)
		}
	})

	t.Run("auto-all-succeed", func(t *testing.T) {
		b, id, keyFor := chaosBank(t, qm, BankOptions{Capacity: 1})
		defer b.Close()
		if err := b.Prewarm(keyFor(2), 1); err != nil {
			t.Fatalf("prewarm: %v", err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2*sessions)
		for i := 0; i < sessions; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				sconn, cconn := Pipe()
				scfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout,
					Bank: b, OfflineMode: OfflineAuto}
				ccfg := Config{RingBits: 32, Seed: 400 + uint64(i), RoundTimeout: chaosRoundTimeout,
					Bank: b, OfflineMode: OfflineAuto, BankModel: id}
				var classes []int
				errs[2*i], errs[2*i+1], classes = runParties(t, qm, sconn, cconn, scfg, ccfg)
				if errs[2*i+1] == nil {
					for k, x := range chaosInputs(2) {
						if classes[k] != qm.Predict(x) {
							t.Errorf("session %d misclassified input %d", i, k)
						}
					}
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("session %d party %d: %v", i/2, i%2, err)
			}
		}
	})

	leakcheck.Settle(t, base, "bank dry concurrent")
}
