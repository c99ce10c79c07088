package abnn2

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"abnn2/internal/leakcheck"
	"abnn2/internal/transport"
)

// Chaos suite: full secure inference under injected transport faults.
// The invariant under test is error-not-hang: whatever a peer does —
// stall, truncate, corrupt, drop a message, or disconnect mid-round —
// both parties must return (an error where the protocol cannot
// complete), within their deadlines, without leaking goroutines and
// without panicking the process.

const (
	chaosRoundTimeout = 2 * time.Second
	chaosWatchdog     = 60 * time.Second
)

// chaosModel returns a tiny Xavier-initialised quantized MLP. Chaos runs
// exercise protocol structure (OT extension, triplets, GC ReLU, reveal),
// not accuracy, so no training is needed.
func chaosModel(t *testing.T) *QuantizedModel {
	t.Helper()
	qm, err := NewMLP(12, 8, 4).Quantize("4(2,2)", 6)
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

func chaosInputs(n int) [][]float64 { return chaosInputsDim(n, 12) }

func chaosInputsDim(n, dim int) [][]float64 {
	ins := make([][]float64, n)
	for k := range ins {
		x := make([]float64, dim)
		for i := range x {
			x[i] = float64((k*31+i*17)%23)/23 - 0.5
		}
		ins[k] = x
	}
	return ins
}

// runParties runs one inference between Serve and Classify, closing each
// party's endpoint as it finishes (as the binaries do), and fails the
// test with full stacks if either side hangs past the watchdog.
func runParties(t *testing.T, qm *QuantizedModel, sconn, cconn Conn, scfg, ccfg Config) (srvErr, cliErr error, classes []int) {
	t.Helper()
	sch := make(chan error, 1)
	cch := make(chan error, 1)
	go func() {
		_, err := Serve(sconn, qm, scfg)
		sconn.Close()
		sch <- err
	}()
	go func() {
		client, err := DialContext(context.Background(), cconn, qm.Arch(), ccfg)
		if err != nil {
			cconn.Close()
			cch <- err
			return
		}
		defer client.Close()
		classes, err = client.Classify(chaosInputsDim(2, qm.Arch().InputSize()))
		cch <- err
	}()
	watchdog := time.After(chaosWatchdog)
	for sch != nil || cch != nil {
		select {
		case srvErr = <-sch:
			sch = nil
		case cliErr = <-cch:
			cch = nil
		case <-watchdog:
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("chaos run hung (server done=%v client done=%v):\n%s",
				sch == nil, cch == nil, buf[:n])
		}
	}
	return srvErr, cliErr, classes
}

// sampleIndices picks up to k message indices spread over [0, n),
// always including the first and last.
func sampleIndices(n, k int) []int {
	if n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	seen := map[int]bool{}
	var out []int
	for i := 0; i < k; i++ {
		idx := i * (n - 1) / max(k-1, 1)
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestChaosFaultMatrix injects every fault class at message indices
// spread across the whole protocol, on each side in turn.
func TestChaosFaultMatrix(t *testing.T) {
	points := 4
	if testing.Short() {
		points = 2
	}
	runFaultMatrix(t, chaosModel(t), points)
}

// chaosPipelinedModel is chaosModel with a first layer of 12 chunks and
// a second of one, which the server extends through as one run of 13 —
// more than the offline window — so faults land while the server's
// producer is sending ahead, and most message indices are mid-run.
func chaosPipelinedModel(t *testing.T) *QuantizedModel {
	t.Helper()
	qm, err := NewMLP(1024, 24, 4).Quantize("4(2,2)", 6)
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

// TestChaosFaultMatrixPipelined is the fault matrix over the pipelined
// offline path: the same invariants — error not hang, within the round
// timeout, zero leaked goroutines (the producer included) — with the
// server up to a window of chunks ahead of the client when the fault
// fires.
func TestChaosFaultMatrixPipelined(t *testing.T) {
	points := 3
	if testing.Short() {
		points = 2
	}
	runFaultMatrix(t, chaosPipelinedModel(t), points)
}

func runFaultMatrix(t *testing.T, qm *QuantizedModel, points int) {
	inputs := chaosInputsDim(2, qm.Arch().InputSize())
	cfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout}
	ccfg := cfg
	ccfg.Seed = 99

	// Clean run: warms the worker pool, verifies the configuration, and
	// discovers how many messages each side sends.
	sf := transport.Fault(nil, transport.FaultPlan{})
	cf := transport.Fault(nil, transport.FaultPlan{})
	{
		sconn, cconn := Pipe()
		sf, cf = transport.Fault(sconn, transport.FaultPlan{}), transport.Fault(cconn, transport.FaultPlan{})
		srvErr, cliErr, classes := runParties(t, qm, sf, cf, cfg, ccfg)
		if srvErr != nil || cliErr != nil {
			t.Fatalf("clean run failed: server=%v client=%v", srvErr, cliErr)
		}
		for k, x := range inputs {
			if classes[k] != qm.Predict(x) {
				t.Fatalf("clean run misclassified input %d", k)
			}
		}
	}
	t.Logf("clean run: server sends %d messages, client sends %d", sf.Sends(), cf.Sends())

	// Each subtest runs on its own goroutine under the parent, so the
	// in-subtest baseline is one above what the parent observes here.
	base := leakcheck.Base() + 1

	sides := []struct {
		name  string
		sends int
	}{
		{"client", cf.Sends()},
		{"server", sf.Sends()},
	}
	for _, side := range sides {
		side := side
		for _, class := range transport.FaultClasses {
			class := class
			for _, idx := range sampleIndices(side.sends, points) {
				idx := idx
				t.Run(fmt.Sprintf("%s-%s-msg%d", side.name, class, idx), func(t *testing.T) {
					plan := transport.FaultPlan{
						Class:   class,
						Message: idx,
						Seed:    uint64(idx)*1000 + 7,
						Delay:   100 * time.Millisecond, // well under the round timeout
					}
					sconn, cconn := Pipe()
					var faulted *transport.FaultConn
					if side.name == "client" {
						faulted = transport.Fault(cconn, plan)
						cconn = faulted
					} else {
						faulted = transport.Fault(sconn, plan)
						sconn = faulted
					}
					srvErr, cliErr, classes := runParties(t, qm, sconn, cconn, cfg, ccfg)
					if !faulted.Fired() {
						t.Fatalf("fault at message %d never fired (%d sends observed)", idx, faulted.Sends())
					}
					switch class {
					case transport.FaultDelay:
						// A delay below the round timeout must be absorbed.
						if srvErr != nil || cliErr != nil {
							t.Fatalf("tolerable delay failed the run: server=%v client=%v", srvErr, cliErr)
						}
						for k, x := range inputs {
							if classes[k] != qm.Predict(x) {
								t.Errorf("delayed run misclassified input %d", k)
							}
						}
					case transport.FaultDrop, transport.FaultTruncate, transport.FaultDisconnect:
						// The protocol cannot complete; at least one party must
						// report it. (The other may legitimately see only the
						// resulting hangup — or nothing, when the lost message
						// was the last one it was owed.)
						if srvErr == nil && cliErr == nil {
							t.Fatalf("%v at message %d went unnoticed", class, idx)
						}
					case transport.FaultCorrupt:
						// Corruption must never hang or kill the process;
						// whether it is detectable depends on which message it
						// hits (a corrupted share is valid bytes), so no error
						// assertion. Contained panics are acceptable here.
						var pe *PanicError
						if errors.As(srvErr, &pe) || errors.As(cliErr, &pe) {
							t.Logf("corruption surfaced as contained panic: %v", pe)
						}
					}
					leakcheck.Settle(t, base, t.Name())
				})
			}
		}
	}
}

// TestChaosServerCancelledWhileIdle: cancelling the server's context
// must abort the between-batches idle wait (which has no round
// deadline) and return an error wrapping the context's error.
func TestChaosServerCancelledWhileIdle(t *testing.T) {
	qm := chaosModel(t)
	base := leakcheck.Base()

	sconn, cconn := Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ServeContext(ctx, sconn, qm, Config{RingBits: 32})
		done <- err
	}()
	client, err := Dial(cconn, qm.Arch(), Config{RingBits: 32, Seed: 3})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	// One full batch proves the session works; then the client goes
	// quiet and the server sits in its idle announcement wait.
	if _, err := client.Classify(chaosInputs(1)); err != nil {
		t.Fatalf("classify: %v", err)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ServeContext returned %v, want context.Canceled", err)
		}
	case <-time.After(chaosWatchdog):
		t.Fatal("ServeContext did not return after cancellation")
	}
	client.Close()
	sconn.Close()
	leakcheck.Settle(t, base+2, "server cancellation")
}

// TestChaosClientCancelledMidSetup: cancelling the client's context
// while it is blocked mid-handshake (no server on the other end) must
// abort the dial rather than hang it.
func TestChaosClientCancelledMidSetup(t *testing.T) {
	qm := chaosModel(t)
	base := leakcheck.Base()

	sconn, cconn := Pipe()
	defer sconn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := DialContext(ctx, cconn, qm.Arch(), Config{RingBits: 32, Seed: 4})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the dial block in base-OT recv
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DialContext returned %v, want context.Canceled", err)
		}
	case <-time.After(chaosWatchdog):
		t.Fatal("DialContext did not return after cancellation")
	}
	leakcheck.Settle(t, base+2, "client cancellation")
}

// TestRoundTimeoutAllowsIdleBetweenBatches: RoundTimeout bounds protocol
// rounds, not the server's idle wait — a client may pause between
// batches for longer than the round timeout without being disconnected.
func TestRoundTimeoutAllowsIdleBetweenBatches(t *testing.T) {
	qm := chaosModel(t)
	sconn, cconn := Pipe()
	srvErr := make(chan error, 1)
	go func() {
		_, err := Serve(sconn, qm, Config{RingBits: 32, RoundTimeout: 100 * time.Millisecond})
		srvErr <- err
	}()
	client, err := Dial(cconn, qm.Arch(), Config{RingBits: 32, Seed: 5, RoundTimeout: chaosRoundTimeout})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	if _, err := client.Classify(chaosInputs(1)); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	time.Sleep(400 * time.Millisecond) // several round timeouts of idling
	if _, err := client.Classify(chaosInputs(1)); err != nil {
		t.Fatalf("batch after idle pause: %v", err)
	}
	client.Close()
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}
