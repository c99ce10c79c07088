package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"abnn2"
	"abnn2/internal/leakcheck"
	"abnn2/internal/metrics"
	"abnn2/internal/trace"
)

// Diagnostics suite: the always-on flight recorder, anomaly-triggered
// dumps, and the merged cross-party timeline over a real in-process
// session. Run with -race; every test ends with zero leaked goroutines.

// readDumps parses every diag-*.json file in dir.
func readDumps(t *testing.T, dir string) []diagDump {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "diag-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out []diagDump
	for _, p := range matches {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var d diagDump
		if err := json.Unmarshal(raw, &d); err != nil {
			t.Fatalf("parse %s: %v", p, err)
		}
		out = append(out, d)
	}
	return out
}

// TestDiagSLOBreachDumpsDelayedSession is the acceptance scenario: a
// session slower than the SLO must leave an automatic flight-recorder
// dump in the diagnostics directory whose events identify the delayed
// flights — without tracing having been requested, and without leaking
// goroutines.
func TestDiagSLOBreachDumpsDelayedSession(t *testing.T) {
	base := leakcheck.Base()
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	m := NewMetrics(reg)
	rt := testRuntime(t, Options{
		Metrics:     m,
		Recorder:    trace.NewRecorder(0, 0),
		SLO:         time.Nanosecond, // every real session breaches
		DiagDir:     dir,
		DiagProfile: 20 * time.Millisecond,
	})
	// Drive the session on a background context so the server observes a
	// clean client shutdown (a cancelled context would end the session on
	// the error path instead of the SLO path).
	conn, arch, err := rt.Connect(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	client, err := abnn2.Dial(conn, arch, abnn2.Config{RingBits: 32, RoundTimeout: testRoundTimeout})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Classify(testInputs(2)); err != nil {
		t.Fatal(err)
	}
	client.Close()
	conn.Close()

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Drain(dctx); err != nil {
		t.Fatal(err)
	}

	dumps := readDumps(t, dir)
	var breach *diagDump
	for i := range dumps {
		if dumps[i].Reason == "slo-breach" {
			breach = &dumps[i]
		}
	}
	if breach == nil {
		t.Fatalf("no slo-breach dump in %s (got %d dumps)", dir, len(dumps))
	}
	if breach.Session == 0 || breach.Model != "m0" {
		t.Errorf("dump = session %d model %q, want a real session of m0", breach.Session, breach.Model)
	}
	if breach.ElapsedMS < 0 || breach.SLOMS != 0 {
		t.Errorf("dump elapsed/slo = %d/%d ms", breach.ElapsedMS, breach.SLOMS)
	}
	// The ring must pin the anomaly on specific wire activity: recorded
	// flight stamps with direction, sequence and wall time.
	flights := 0
	for _, ev := range breach.Events {
		if ev.Flight != nil {
			flights++
			if ev.Flight.Dir == "" || ev.Flight.Seq == 0 || ev.Flight.Wall.IsZero() {
				t.Fatalf("recorded flight lacks identity: %+v", ev.Flight)
			}
			if ev.Flight.Session != breach.Session {
				t.Fatalf("recorded flight of session %d in dump of session %d",
					ev.Flight.Session, breach.Session)
			}
		}
	}
	if flights == 0 {
		t.Error("dump holds no flight events — the delayed flights are unidentifiable")
	}
	if m.DiagDumps.Value() == 0 {
		t.Error("abnn2_diag_dumps_total still zero")
	}
	// The CPU profile window must have been captured and closed by Drain.
	if profs, _ := filepath.Glob(filepath.Join(dir, "diag-cpu-*.pprof")); len(profs) != 1 {
		t.Errorf("%d CPU profiles, want 1", len(profs))
	}
	leakcheck.Settle(t, base, "diag SLO breach")
}

func TestDiagErrorDump(t *testing.T) {
	base := leakcheck.Base()
	dir := t.TempDir()
	rt := testRuntime(t, Options{
		Recorder: trace.NewRecorder(0, 0),
		DiagDir:  dir,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, _, err := rt.Connect(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	// Abandon the session right after admission: the server's protocol
	// read fails and the error path must dump.
	conn.Close()

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := rt.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range readDumps(t, dir) {
		if d.Reason == "error" && d.Err != "" {
			found = true
		}
	}
	if !found {
		t.Error("failed session left no error dump")
	}
	leakcheck.Settle(t, base, "diag error dump")
}

func TestDiagShedDumpAndCap(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	m := NewMetrics(reg)
	rt := testRuntime(t, Options{Metrics: m, DiagDir: dir})
	// Every rejected handshake dumps; past the per-process cap the dumps
	// are suppressed but still counted.
	for i := 0; i < maxDiagDumps+5; i++ {
		if _, _, err := rt.Connect(context.Background(), "no-such-model"); err == nil {
			t.Fatal("unknown model admitted")
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "diag-shed-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != maxDiagDumps {
		t.Errorf("%d shed dumps on disk, want the cap %d", len(files), maxDiagDumps)
	}
	if got := m.DiagSuppressed.Value(); got != 5 {
		t.Errorf("suppressed = %d, want 5", got)
	}
	dumps := readDumps(t, dir)
	if len(dumps) == 0 || dumps[0].Reason != "shed" || !strings.Contains(dumps[0].Err, RejectUnknownModel) {
		t.Errorf("first dump = %+v, want a shed naming the rejection", dumps[0])
	}
}

func TestFlightRecorderHandler(t *testing.T) {
	rec := trace.NewRecorder(8, 8)
	rt := testRuntime(t, Options{Recorder: rec})
	classifyOnce(t, rt, "")
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Drain(dctx); err != nil {
		t.Fatal(err)
	}

	h := rt.FlightRecorderHandler()
	get := func(url string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		return w
	}

	w := get("/debug/flightrecorder")
	if w.Code != 200 {
		t.Fatalf("list status = %d", w.Code)
	}
	var list struct {
		Sessions []uint64 `json:"sessions"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil || len(list.Sessions) != 1 {
		t.Fatalf("sessions = %v (err %v), want one", list.Sessions, err)
	}

	w = get("/debug/flightrecorder?session=" + jsonUint(list.Sessions[0]))
	if w.Code != 200 {
		t.Fatalf("session status = %d", w.Code)
	}
	var dump struct {
		Session uint64                `json:"session"`
		Events  []trace.RecorderEvent `json:"events"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dump); err != nil || len(dump.Events) == 0 {
		t.Fatalf("session dump = %d events (err %v), want > 0", len(dump.Events), err)
	}

	if w = get("/debug/flightrecorder?session=bogus"); w.Code != 400 {
		t.Errorf("bad id status = %d, want 400", w.Code)
	}
	if w = get("/debug/flightrecorder?session=424242"); w.Code != 404 {
		t.Errorf("unknown session status = %d, want 404", w.Code)
	}

	// A runtime without a recorder answers 404 at the root.
	bare := testRuntime(t, Options{})
	w = httptest.NewRecorder()
	bare.FlightRecorderHandler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	if w.Code != 404 {
		t.Errorf("disabled recorder status = %d, want 404", w.Code)
	}
}

func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestServeTimelineEndToEnd drives a real session over a pipe with both
// endpoints tracing, merges the two dumps, and requires the reconciled
// timeline to attribute the session's wall time within 1% — the same
// invariant scripts/loadtest.sh asserts over TCP in CI.
func TestServeTimelineEndToEnd(t *testing.T) {
	base := leakcheck.Base()
	srvTrace := abnn2.NewTraceCollector()
	rt := testRuntime(t, Options{Session: abnn2.Config{
		RingBits: 32, RoundTimeout: testRoundTimeout, Trace: srvTrace,
	}})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sconn, cconn := abnn2.Pipe()
	go func() { _ = rt.HandleConn(ctx, sconn, "test") }()
	info, err := ClientHandshakeInfo(cconn, "")
	if err != nil {
		t.Fatal(err)
	}
	if info.SessionID == 0 {
		t.Fatal("handshake carried no session id")
	}
	cliTrace := abnn2.NewTraceCollector()
	client, err := abnn2.Dial(cconn, info.Arch, abnn2.Config{
		RingBits: 32, RoundTimeout: testRoundTimeout,
		Trace: cliTrace, SessionID: info.SessionID,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Classify(testInputs(2)); err != nil {
		t.Fatal(err)
	}
	client.Close()
	cconn.Close()
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := rt.Drain(dctx); err != nil {
		t.Fatal(err)
	}

	spans := append(srvTrace.Spans(), cliTrace.Spans()...)
	flights := append(srvTrace.Flights(), cliTrace.Flights()...)
	ids := trace.Sessions(flights)
	if len(ids) != 1 || ids[0] != info.SessionID {
		t.Fatalf("two-party sessions = %v, want [%d]", ids, info.SessionID)
	}
	tl, err := trace.BuildTimeline(info.SessionID, spans, flights)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Check(0.01); err != nil {
		t.Fatalf("timeline does not tile the session: %v\n%s", err, trace.FormatTimeline(tl))
	}
	// Same process, same clock: the estimated offset must be tiny.
	if off := tl.Offset; off < -time.Second || off > time.Second {
		t.Errorf("same-host clock offset = %v", off)
	}
	// A real session computes and talks; both classes must show up, and
	// the server's admission span must have put the handshake in queue.
	for _, class := range []string{trace.ClassCompute, trace.ClassWire, trace.ClassQueue} {
		if tl.ByClass[class] <= 0 {
			t.Errorf("class %s absent from a real session:\n%s", class, trace.FormatTimeline(tl))
		}
	}
	leakcheck.Settle(t, base, "timeline end to end")
}
