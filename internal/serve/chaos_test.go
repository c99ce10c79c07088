package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"abnn2"
	"abnn2/internal/leakcheck"
	"abnn2/internal/metrics"
	"abnn2/internal/transport"
)

// Serve-layer chaos suite: the admission and backpressure machinery under
// concurrent multi-tenant load, hostile clients, and injected transport
// faults. The invariant is the same error-not-hang
// discipline as the protocol chaos suite, lifted one layer up: every
// client either completes, or observes a typed retryable rejection it
// can act on, or gets a prompt error — and the runtime ends every run
// with zero admitted sessions and zero leaked goroutines. Run with
// -race: the admission path is the most contended code in the repo.

const chaosServeWatchdog = 120 * time.Second

// watchdog fails the test with full stacks if fn does not return in time.
func watchdog(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(chaosServeWatchdog):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("%s hung:\n%s", what, buf[:n])
	}
}

// connectHonoringHints is the well-behaved client loop: retry typed
// retryable rejections after their (jittered) hint. It records every
// hint observed so the test can assert none were missing.
func connectHonoringHints(ctx context.Context, rt *Runtime, model string, hintless *int32, mu *sync.Mutex,
) (abnn2.Conn, abnn2.Arch, error) {
	for {
		conn, arch, err := rt.Connect(ctx, model)
		if err == nil {
			return conn, arch, nil
		}
		var rej *RejectError
		if !errors.As(err, &rej) || !rej.Temporary() {
			return nil, arch, err
		}
		wait := rej.Rejection.RetryAfter()
		if wait <= 0 {
			mu.Lock()
			*hintless++
			mu.Unlock()
			wait = defaultRetryAfter
		}
		select {
		case <-ctx.Done():
			return nil, arch, ctx.Err()
		case <-time.After(transport.Jitter(wait)):
		}
	}
}

// TestChaosServeMultiTenantLoad: many clients, two tenant models, a
// deliberately small admission capacity. Every client must complete all
// its sessions by riding the backpressure protocol; every retryable
// rejection must carry a hint; the runtime must end idle and leak-free.
func TestChaosServeMultiTenantLoad(t *testing.T) {
	base := leakcheck.Base()

	reg := testRegistry(t, "tenant-a", "tenant-b")
	m := NewMetrics(metrics.NewRegistry())
	rt := testRuntime(t, Options{Registry: reg, MaxSessions: 2, Metrics: m})

	const (
		clients           = 8
		sessionsPerClient = 2
	)
	ctx, cancel := context.WithTimeout(context.Background(), chaosServeWatchdog)
	defer cancel()

	var mu sync.Mutex
	var hintless int32
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		model := []string{"tenant-a", "tenant-b"}[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < sessionsPerClient; s++ {
				conn, arch, err := connectHonoringHints(ctx, rt, model, &hintless, &mu)
				if err != nil {
					errs[i] = fmt.Errorf("session %d connect: %w", s, err)
					return
				}
				client, err := abnn2.Dial(conn, arch, abnn2.Config{
					RingBits: 32, RoundTimeout: testRoundTimeout, Seed: 100 + uint64(i)})
				if err != nil {
					conn.Close()
					errs[i] = fmt.Errorf("session %d dial: %w", s, err)
					return
				}
				_, err = client.Classify(testInputs(2))
				client.Close()
				if err != nil {
					errs[i] = fmt.Errorf("session %d classify: %w", s, err)
					return
				}
			}
		}()
	}
	watchdog(t, "multi-tenant load", wg.Wait)

	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	if hintless > 0 {
		t.Errorf("%d retryable rejections carried no retry-after hint", hintless)
	}
	if got := m.SessionsTotal.With("tenant-a").Value() + m.SessionsTotal.With("tenant-b").Value(); got != clients*sessionsPerClient {
		t.Errorf("sessions served = %d, want %d", got, clients*sessionsPerClient)
	}
	// Clients closed their ends; the server side releases each slot when
	// it observes the hang-up — settle before asserting.
	deadline := time.Now().Add(15 * time.Second)
	for rt.Admission().Active() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if active := rt.Admission().Active(); active != 0 {
		t.Errorf("%d sessions still admitted after the run", active)
	}
	if m.SessionsActive.Value() != 0 {
		t.Errorf("sessions_active gauge = %d after the run", m.SessionsActive.Value())
	}
	leakcheck.Settle(t, base, "multi-tenant load")
}

// TestChaosServeSlowLoris: clients that connect and never speak must be
// cut by the handshake deadline without ever holding a session slot, and
// an honest client arriving meanwhile must be served normally.
func TestChaosServeSlowLoris(t *testing.T) {
	base := leakcheck.Base()

	rt := testRuntime(t, Options{MaxSessions: 1, HandshakeTimeout: 200 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), chaosServeWatchdog)
	defer cancel()

	// A pack of silent connections, enough to pin every slot if the
	// deadline (or slot accounting) were wrong.
	const loris = 5
	handled := make(chan error, loris)
	var pins []abnn2.Conn
	for i := 0; i < loris; i++ {
		sconn, cconn := abnn2.Pipe()
		pins = append(pins, cconn)
		go func() { handled <- rt.HandleConn(ctx, sconn, "loris") }()
	}

	// An honest client while the loris pack is still parked.
	qm := rt.Registry().Default().Quant
	classes := classifyOnce(t, rt, "")
	for k, x := range testInputs(2) {
		if want := qm.Predict(x); classes[k] != want {
			t.Errorf("honest client misclassified input %d: %d != %d", k, classes[k], want)
		}
	}

	// Every loris must be evicted by the deadline, with an error, having
	// never claimed a slot.
	for i := 0; i < loris; i++ {
		select {
		case err := <-handled:
			if err == nil {
				t.Error("silent connection handled without error")
			}
		case <-time.After(chaosServeWatchdog):
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("slow-loris connection still parked:\n%s", buf[:n])
		}
	}
	// The honest session's server goroutine releases its slot a beat
	// after the client hangs up — settle before asserting, as above. A
	// loris that really claimed a slot would never release it and still
	// trips the deadline.
	deadline := time.Now().Add(15 * time.Second)
	for rt.Admission().Active() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if active := rt.Admission().Active(); active != 0 {
		t.Errorf("loris pack holds %d session slots", active)
	}
	for _, c := range pins {
		c.Close()
	}
	leakcheck.Settle(t, base, "slow loris")
}

// TestChaosServeFaultsUnderLoad: every transport fault class injected
// into an admitted session, while a concurrent healthy session runs on
// the same runtime. The faulted session must error-or-complete promptly,
// the healthy one must classify correctly, and neither may leak a slot
// or a goroutine.
func TestChaosServeFaultsUnderLoad(t *testing.T) {
	base := leakcheck.Base()

	rt := testRuntime(t, Options{MaxSessions: 4})
	qm := rt.Registry().Default().Quant

	for _, class := range transport.FaultClasses {
		for _, msg := range []int{0, 3} {
			t.Run(fmt.Sprintf("%v-msg%d", class, msg), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), chaosServeWatchdog)
				defer cancel()

				// Healthy session concurrent with the faulted one. No t.Fatal
				// in this goroutine: every exit path must send on the channel
				// or the receive below would hang the test.
				healthy := make(chan error, 1)
				go func() {
					healthy <- func() (err error) {
						defer func() {
							if r := recover(); r != nil {
								err = fmt.Errorf("panic: %v", r)
							}
						}()
						conn, arch, err := rt.Connect(ctx, "")
						if err != nil {
							return fmt.Errorf("connect: %w", err)
						}
						client, err := abnn2.Dial(conn, arch, abnn2.Config{
							RingBits: 32, RoundTimeout: testRoundTimeout})
						if err != nil {
							conn.Close()
							return fmt.Errorf("dial: %w", err)
						}
						defer client.Close()
						classes, err := client.Classify(testInputs(2))
						if err != nil {
							return fmt.Errorf("classify: %w", err)
						}
						for k, x := range testInputs(2) {
							if classes[k] != qm.Predict(x) {
								return fmt.Errorf("misclassified input %d", k)
							}
						}
						return nil
					}()
				}()

				conn, arch, err := rt.Connect(ctx, "")
				if err != nil {
					t.Fatalf("connect: %v", err)
				}
				faulted := transport.Fault(conn, transport.FaultPlan{
					Class: class, Message: msg, Seed: 0xFA010 + uint64(msg),
					Delay: 50 * time.Millisecond,
				})
				watchdog(t, fmt.Sprintf("faulted session (%v msg %d)", class, msg), func() {
					client, err := abnn2.Dial(faulted, arch, abnn2.Config{
						RingBits: 32, RoundTimeout: 2 * time.Second, Seed: 7})
					if err == nil {
						_, err = client.Classify(testInputs(2))
						client.Close()
					} else {
						faulted.Close()
					}
					// Delay faults must still complete; destructive faults may
					// error — but must not hang (the watchdog is the assertion).
					if class == transport.FaultDelay && err != nil {
						t.Errorf("delay fault broke the session: %v", err)
					}
				})
				if err := <-healthy; err != nil {
					t.Errorf("healthy session alongside %v fault: %v", class, err)
				}
			})
		}
	}

	// Whatever the faults did, every slot must be home by now.
	deadline := time.Now().Add(15 * time.Second)
	for rt.Admission().Active() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if active := rt.Admission().Active(); active != 0 {
		t.Errorf("%d session slots leaked across fault classes", active)
	}
	leakcheck.Settle(t, base, "faults under load")
}

// TestChaosServeDrainUnderLoad: Drain must wait for in-flight sessions,
// shed newcomers with a retryable draining rejection, and return once
// the stragglers finish.
func TestChaosServeDrainUnderLoad(t *testing.T) {
	base := leakcheck.Base()

	rt := testRuntime(t, Options{MaxSessions: 2})
	ctx, cancel := context.WithTimeout(context.Background(), chaosServeWatchdog)
	defer cancel()

	// One session mid-flight when the drain lands.
	conn, arch, err := rt.Connect(ctx, "")
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	sessionDone := make(chan error, 1)
	go func() {
		client, err := abnn2.Dial(conn, arch, abnn2.Config{RingBits: 32, RoundTimeout: testRoundTimeout})
		if err != nil {
			conn.Close()
			sessionDone <- err
			return
		}
		_, err = client.Classify(testInputs(2))
		client.Close()
		sessionDone <- err
	}()

	drainDone := make(chan error, 1)
	go func() {
		dctx, dcancel := context.WithTimeout(context.Background(), chaosServeWatchdog)
		defer dcancel()
		drainDone <- rt.Drain(dctx)
	}()

	// Wait until the drain flag is set (Drain sets it before waiting), so
	// the newcomer probe below deterministically races nothing.
	for {
		if ready, reason := rt.ReadyState(); !ready && reason == "draining" {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("drain flag never set")
		case <-time.After(2 * time.Millisecond):
		}
	}

	// While draining, a newcomer is shed with the typed rejection.
	_, _, err = rt.Connect(ctx, "")
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Rejection.Code != RejectDraining {
		t.Fatalf("newcomer during drain got %v, want draining rejection", err)
	}
	if !rej.Temporary() || rej.Rejection.RetryAfter() <= 0 {
		t.Fatalf("draining rejection not retryable-with-hint: %+v", rej.Rejection)
	}

	if err := <-sessionDone; err != nil {
		t.Errorf("in-flight session failed during drain: %v", err)
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Errorf("drain: %v", err)
		}
	case <-time.After(chaosServeWatchdog):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("drain never returned:\n%s", buf[:n])
	}
	leakcheck.Settle(t, base, "drain under load")
}

// TestChaosServeBankedMultiTenant: six bank-less clients of two tenants
// race for two session slots on a runtime whose sessions carry a
// storeless bank. Every client must finish its batch, riding out
// saturated rejections by their retry-after hints — never a hang, never
// a hintless retryable rejection — and nothing leaks: a server-side bank
// no client draws from changes neither admission nor the inline offline
// phase.
func TestChaosServeBankedMultiTenant(t *testing.T) {
	base := leakcheck.Base()

	reg := testRegistry(t, "tenant-a", "tenant-b")
	bank := abnn2.NewBank(abnn2.BankOptions{Capacity: 2, Workers: 1, Seed: 0xD1CE})
	defer bank.Close()
	m := NewMetrics(metrics.NewRegistry())
	rt := testRuntime(t, Options{
		Registry: reg, MaxSessions: 2, Metrics: m,
		Session: abnn2.Config{RingBits: 32, RoundTimeout: testRoundTimeout, Bank: bank, OfflineMode: abnn2.OfflineAuto},
	})

	ctx, cancel := context.WithTimeout(context.Background(), chaosServeWatchdog)
	defer cancel()
	var mu sync.Mutex
	var hintless int32
	const clients = 6
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		model := []string{"tenant-a", "tenant-b"}[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, arch, err := connectHonoringHints(ctx, rt, model, &hintless, &mu)
			if err != nil {
				errs[i] = err
				return
			}
			client, err := abnn2.Dial(conn, arch, abnn2.Config{
				RingBits: 32, RoundTimeout: testRoundTimeout, Seed: 200 + uint64(i)})
			if err != nil {
				conn.Close()
				errs[i] = err
				return
			}
			_, err = client.Classify(testInputs(2))
			client.Close()
			errs[i] = err
		}()
	}
	watchdog(t, "banked multi-tenant", wg.Wait)
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	if hintless > 0 {
		t.Errorf("%d retryable rejections carried no hint", hintless)
	}
	leakcheck.Settle(t, base, "banked multi-tenant")
}
