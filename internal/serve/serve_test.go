package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"abnn2"
	"abnn2/internal/metrics"
	"abnn2/internal/transport"
)

const testRoundTimeout = 5 * time.Second

// testModel returns a tiny Xavier-initialised quantized MLP; serve tests
// exercise admission and lifecycle, not accuracy.
func testModel(t *testing.T, hidden int) *abnn2.QuantizedModel {
	t.Helper()
	qm, err := abnn2.NewMLP(12, hidden, 4).Quantize("4(2,2)", 6)
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

func testRegistry(t *testing.T, names ...string) *Registry {
	t.Helper()
	r := NewRegistry()
	for i, n := range names {
		if _, err := r.Add(n, testModel(t, 8+2*i)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func testRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = testRegistry(t, "m0")
	}
	if opts.Session.RingBits == 0 {
		opts.Session.RingBits = 32
	}
	if opts.Session.RoundTimeout == 0 {
		opts.Session.RoundTimeout = testRoundTimeout
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func testInputs(n int) [][]float64 {
	ins := make([][]float64, n)
	for k := range ins {
		x := make([]float64, 12)
		for i := range x {
			x[i] = float64((k*31+i*17)%23)/23 - 0.5
		}
		ins[k] = x
	}
	return ins
}

// classifyOnce runs one admitted session end to end: Connect, Dial,
// Classify, Close.
func classifyOnce(t *testing.T, rt *Runtime, model string) []int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, arch, err := rt.Connect(ctx, model)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	client, err := abnn2.Dial(conn, arch, abnn2.Config{RingBits: 32, RoundTimeout: testRoundTimeout})
	if err != nil {
		conn.Close()
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	classes, err := client.Classify(testInputs(2))
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	return classes
}

func TestRegistryDefaultAndLookup(t *testing.T) {
	r := testRegistry(t, "alpha", "beta")
	if def := r.Default(); def == nil || def.Name != "alpha" {
		t.Fatalf("default = %v, want alpha (first added)", def)
	}
	if m, ok := r.Get(""); !ok || m.Name != "alpha" {
		t.Fatalf("empty name resolved to %v", m)
	}
	if m, ok := r.Get("beta"); !ok || m.Name != "beta" {
		t.Fatalf("beta resolved to %v", m)
	}
	if _, ok := r.Get("gamma"); ok {
		t.Fatal("unknown model resolved")
	}
	if got := r.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("names = %v", got)
	}
	if _, err := r.Add("alpha", testModel(t, 8)); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if _, err := r.Add("", testModel(t, 8)); err == nil {
		t.Fatal("empty-name Add succeeded")
	}
}

func TestAdmissionCapacityAndHints(t *testing.T) {
	a := NewAdmission(2)
	rel1, ok := a.TryAcquire()
	if !ok {
		t.Fatal("first acquire refused")
	}
	rel2, ok := a.TryAcquire()
	if !ok {
		t.Fatal("second acquire refused")
	}
	if _, ok := a.TryAcquire(); ok {
		t.Fatal("over-capacity acquire admitted")
	}
	if got := a.Active(); got != 2 {
		t.Fatalf("active = %d, want 2", got)
	}
	// Hint before any release: the optimistic low clamp.
	if got := a.RetryAfter(); got != minRetryAfter {
		t.Fatalf("cold hint = %v, want %v", got, minRetryAfter)
	}
	rel1()
	rel2()
	if got := a.Active(); got != 0 {
		t.Fatalf("active after release = %d, want 0", got)
	}
	if _, ok := a.TryAcquire(); !ok {
		t.Fatal("slot not reusable after release")
	}
	// Hints stay inside the clamp whatever the EWMA has seen.
	if got := a.RetryAfter(); got < minRetryAfter || got > maxRetryAfter {
		t.Fatalf("hint %v outside [%v, %v]", got, minRetryAfter, maxRetryAfter)
	}
}

func TestAdmissionMinimumCapacity(t *testing.T) {
	a := NewAdmission(0)
	if a.Max() != 1 {
		t.Fatalf("max = %d, want clamp to 1", a.Max())
	}
}

func TestServeSessionEndToEnd(t *testing.T) {
	reg := testRegistry(t, "m0", "m1")
	rt := testRuntime(t, Options{Registry: reg})
	for _, name := range []string{"", "m0", "m1"} {
		qm, _ := reg.Get(name)
		classes := classifyOnce(t, rt, name)
		for k, x := range testInputs(2) {
			if want := qm.Quant.Predict(x); classes[k] != want {
				t.Errorf("model %q input %d: secure %d, plaintext %d", name, k, classes[k], want)
			}
		}
	}
}

func TestRejectUnknownModel(t *testing.T) {
	rt := testRuntime(t, Options{})
	_, _, err := rt.Connect(context.Background(), "no-such-model")
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *RejectError", err)
	}
	if rej.Rejection.Code != RejectUnknownModel || rej.Temporary() {
		t.Fatalf("rejection = %+v, want permanent unknown-model", rej.Rejection)
	}
}

func TestRejectBadHello(t *testing.T) {
	rt := testRuntime(t, Options{})
	for _, raw := range [][]byte{
		[]byte("not json"),
		[]byte(`{"abnn2":99}`), // wrong version
		append([]byte(`{"abnn2":3,"model":"`), append(make([]byte, maxHelloBytes), '"', '}')...),
	} {
		sconn, cconn := abnn2.Pipe()
		done := make(chan error, 1)
		go func() { done <- rt.HandleConn(context.Background(), sconn, "test") }()
		if err := cconn.Send(raw); err != nil {
			t.Fatalf("send: %v", err)
		}
		reply, err := cconn.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		var hr helloReply
		if err := json.Unmarshal(reply, &hr); err != nil {
			t.Fatalf("reply not JSON: %v", err)
		}
		if hr.OK || hr.Reject == nil || hr.Reject.Code != RejectBadHello || hr.Reject.Retryable {
			t.Fatalf("reply = %+v, want permanent bad-hello rejection", hr)
		}
		var rej *RejectError
		if err := <-done; !errors.As(err, &rej) || rej.Rejection.Code != RejectBadHello {
			t.Fatalf("HandleConn err = %v, want bad-hello RejectError", err)
		}
		cconn.Close()
	}
}

// TestHelloVersionMismatch: the two directions of pairing this version
// with each older one, on the raw hello. An old client's hello —
// well-formed, naming a served model — is refused bad-hello, permanently,
// before the session's set-up opens a single span; and this client's
// hello says version 8, which an old server (frozen here: it admits its
// own version only) refuses the same way, so the client fails with a
// permanent *RejectError instead of running a handshake whose base-OT
// flights would not line up (version 1), one that completes and then
// derives pads the peer does not (version 2), a planned session whose
// plan flight the peer cannot parse (version 3), a multi-batch layer
// whose payload length the peer refuses (version 4), a GC round whose
// flight length the peer refuses (version 5 or 7), or a planned SecureML
// or QUOTIENT layer whose flights the peer does not pair (version 6).
func TestHelloVersionMismatch(t *testing.T) {
	for old := 1; old < helloVersion; old++ {
		t.Run(fmt.Sprintf("v%d-client", old), func(t *testing.T) {
			var spans abnn2.TraceCollector
			rt := testRuntime(t, Options{Session: abnn2.Config{Trace: &spans}})
			sconn, cconn := abnn2.Pipe()
			defer cconn.Close()
			done := make(chan error, 1)
			go func() { done <- rt.HandleConn(context.Background(), sconn, "test") }()
			if err := cconn.Send(fmt.Appendf(nil, `{"abnn2":%d,"model":"m0"}`, old)); err != nil {
				t.Fatal(err)
			}
			reply, err := cconn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			var hr helloReply
			if err := json.Unmarshal(reply, &hr); err != nil {
				t.Fatalf("reply not JSON: %v", err)
			}
			if hr.OK || hr.Reject == nil || hr.Reject.Code != RejectBadHello || hr.Reject.Retryable {
				t.Fatalf("reply = %+v, want permanent bad-hello rejection", hr)
			}
			var rej *RejectError
			if err := <-done; !errors.As(err, &rej) || rej.Rejection.Code != RejectBadHello {
				t.Fatalf("HandleConn err = %v, want bad-hello RejectError", err)
			}
			if got := spans.Spans(); len(got) != 0 {
				t.Errorf("refused hello left %d spans, want no session work at all", len(got))
			}
		})
		t.Run(fmt.Sprintf("v%d-server", old), func(t *testing.T) {
			sconn, cconn := abnn2.Pipe()
			defer cconn.Close()
			sawVersion := make(chan int, 1)
			go func() {
				defer sconn.Close()
				raw, err := sconn.Recv()
				if err != nil {
					return
				}
				var h hello
				_ = json.Unmarshal(raw, &h)
				sawVersion <- h.V
				hr := helloReply{OK: h.V == old}
				if !hr.OK {
					hr.Reject = &Rejection{Code: RejectBadHello, Reason: "malformed hello or unsupported version"}
				}
				out, _ := json.Marshal(hr)
				_ = sconn.Send(out)
			}()
			_, err := ClientHandshakeInfo(cconn, "m0")
			if v := <-sawVersion; v != 8 {
				t.Errorf("client's hello says version %d, want 8", v)
			}
			var rej *RejectError
			if !errors.As(err, &rej) || rej.Rejection.Code != RejectBadHello || rej.Temporary() {
				t.Fatalf("handshake err = %v, want a permanent bad-hello *RejectError", err)
			}
		})
	}
}

// The server's peer id arrives as hex in the hello reply; the handshake
// parses it, so a malformed one fails here rather than at the first
// banked batch.
func TestHelloReplyPeer(t *testing.T) {
	peer := abnn2.BankPeerID{0xab, 0xcd}
	for _, tc := range []struct {
		name, peer string
		want       abnn2.BankPeerID
		bad        bool
	}{
		{"absent", "", abnn2.BankPeerID{}, false},
		{"valid", peer.String(), peer, false},
		{"not-hex", "zz", abnn2.BankPeerID{}, true},
		{"short", "abcd", abnn2.BankPeerID{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sconn, cconn := abnn2.Pipe()
			defer cconn.Close()
			go func() {
				defer sconn.Close()
				if _, err := sconn.Recv(); err != nil {
					return
				}
				out, _ := json.Marshal(helloReply{OK: true, Arch: json.RawMessage("{}"), RingBits: 32, Peer: tc.peer})
				_ = sconn.Send(out)
			}()
			info, err := ClientHandshakeInfo(cconn, "m0")
			if tc.bad {
				if err == nil || !strings.Contains(err.Error(), "malformed peer id") {
					t.Fatalf("handshake err = %v, want a malformed peer id error", err)
				}
				return
			}
			if err != nil || info.Peer != tc.want {
				t.Fatalf("handshake = %s, %v; want peer %s", info.Peer, err, tc.want)
			}
		})
	}
}

func TestRejectSaturatedWithHint(t *testing.T) {
	m := NewMetrics(metrics.NewRegistry())
	rt := testRuntime(t, Options{MaxSessions: 1, Metrics: m})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Occupy the only slot: admitted but never progressing (no Dial).
	hold, _, err := rt.Connect(ctx, "")
	if err != nil {
		t.Fatalf("holder connect: %v", err)
	}
	defer hold.Close()

	_, _, err = rt.Connect(ctx, "")
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *RejectError", err)
	}
	r := rej.Rejection
	if r.Code != RejectSaturated || !r.Retryable || r.RetryAfterMillis <= 0 {
		t.Fatalf("rejection = %+v, want retryable saturated with a hint", r)
	}
	if got := m.Shed.With(RejectSaturated).Value(); got != 1 {
		t.Errorf("shed[saturated] = %d, want 1", got)
	}
	if got := m.ShedHinted.Value(); got != 1 {
		t.Errorf("shed hinted = %d, want 1", got)
	}

	// Free the slot; a retrying client must now be admitted.
	hold.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, _, err := rt.Connect(ctx, "")
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still rejected after slot freed: %v", err)
		}
		time.Sleep(transport.Jitter(rej.Rejection.RetryAfter()))
	}
}

func TestDrainShedsAndReadyz(t *testing.T) {
	rt := testRuntime(t, Options{})
	healthz := httptest.NewRecorder()
	rt.HealthzHandler().ServeHTTP(healthz, httptest.NewRequest("GET", "/healthz", nil))
	if healthz.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", healthz.Code)
	}
	readyz := httptest.NewRecorder()
	rt.ReadyzHandler().ServeHTTP(readyz, httptest.NewRequest("GET", "/readyz", nil))
	if readyz.Code != http.StatusOK {
		t.Fatalf("readyz = %d, want 200 before drain", readyz.Code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatalf("drain idle runtime: %v", err)
	}

	readyz = httptest.NewRecorder()
	rt.ReadyzHandler().ServeHTTP(readyz, httptest.NewRequest("GET", "/readyz", nil))
	if readyz.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503 while draining", readyz.Code)
	}
	// Liveness must not flip: a draining server is alive.
	healthz = httptest.NewRecorder()
	rt.HealthzHandler().ServeHTTP(healthz, httptest.NewRequest("GET", "/healthz", nil))
	if healthz.Code != http.StatusOK {
		t.Fatalf("healthz = %d during drain, want 200", healthz.Code)
	}

	_, _, err := rt.Connect(context.Background(), "")
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *RejectError", err)
	}
	r := rej.Rejection
	if r.Code != RejectDraining || !r.Retryable || r.RetryAfterMillis <= 0 {
		t.Fatalf("rejection = %+v, want retryable draining with a hint", r)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("New with no registry succeeded")
	}
	if _, err := New(Options{Registry: NewRegistry()}); err == nil {
		t.Error("New with empty registry succeeded")
	}
	reg := testRegistry(t, "m0")
	if _, err := New(Options{Registry: reg,
		Session: abnn2.Config{OfflineMode: abnn2.OfflineBanked}}); err == nil {
		t.Error("New with OfflineBanked and no bank succeeded")
	}
	// A bad session template is a start-up error, not one every client
	// then meets as a dropped connection.
	if _, err := New(Options{Registry: reg, Session: abnn2.Config{Workers: -1}}); err == nil {
		t.Error("New with negative Session.Workers succeeded")
	}
}

// TestJitterRange: every retry-after wait a serve client sleeps — the
// admission hint's bounds, the bank-dry and drain hints, the default for a
// hintless rejection — is jittered over [d/2, 3d/2) with a real spread.
func TestJitterRange(t *testing.T) {
	if got := transport.Jitter(0); got != 0 {
		t.Fatalf("Jitter(0) = %v", got)
	}
	for _, d := range []time.Duration{minRetryAfter, defaultRetryAfter, bankDryRetryAfter, drainRetryAfter, maxRetryAfter} {
		lo, hi := d, d
		for i := 0; i < 2000; i++ {
			j := transport.Jitter(d)
			if j < d/2 || j >= d+d/2 {
				t.Fatalf("Jitter(%v) = %v outside [%v, %v)", d, j, d/2, d+d/2)
			}
			lo, hi = min(lo, j), max(hi, j)
		}
		// With 2000 draws the spread must cover a good part of the
		// interval; a constant (broken jitter) would fail both bounds.
		if lo > d*3/4 || hi < d*5/4 {
			t.Errorf("Jitter(%v) spread [%v, %v] suspiciously narrow", d, lo, hi)
		}
	}
}

func TestRejectionRetryAfter(t *testing.T) {
	if got := (Rejection{RetryAfterMillis: 250}).RetryAfter(); got != 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v", got)
	}
	if got := (Rejection{}).RetryAfter(); got != 0 {
		t.Fatalf("RetryAfter without hint = %v", got)
	}
	e := &RejectError{Rejection: Rejection{Code: RejectSaturated, Retryable: true, RetryAfterMillis: 40}}
	if !e.Temporary() {
		t.Fatal("retryable rejection not Temporary")
	}
	perm := &RejectError{Rejection: Rejection{Code: RejectUnknownModel}}
	if perm.Temporary() {
		t.Fatal("permanent rejection reported Temporary")
	}
}
