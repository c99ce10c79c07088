package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"abnn2/internal/trace"
	"abnn2/internal/transport"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_counter_total", "help")
	g := r.NewGauge("test_gauge", "help")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	g.Set(7)
	g.Add(-2)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	bounds, cum, sum, count := h.snapshot()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	// le=0.1 holds 0.05 and 0.1 (bounds are inclusive), le=1 adds 0.5,
	// le=10 adds 5, +Inf adds 50.
	if cum[0] != 2 || cum[1] != 3 || cum[2] != 4 || count != 5 {
		t.Fatalf("cumulative = %v count=%d", cum, count)
	}
	if want := 55.65; sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_phase_bytes_total", "help", "phase")
	v.With("offline").Add(10)
	v.With("online").Add(20)
	v.With("offline").Add(5)
	vals, cs := v.children()
	if len(vals) != 2 || vals[0] != "offline" || vals[1] != "online" {
		t.Fatalf("children order = %v", vals)
	}
	if cs[0].Value() != 15 || cs[1].Value() != 20 {
		t.Fatalf("children values = %d, %d", cs[0].Value(), cs[1].Value())
	}
}

func TestRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "help")
	mustPanic(t, "duplicate", func() { r.NewGauge("dup_total", "help") })
	mustPanic(t, "invalid name", func() { r.NewCounter("bad name", "help") })
	mustPanic(t, "unsorted buckets", func() { r.NewHistogram("h", "help", []float64{2, 1}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("abnn2_bytes_sent_total", "Bytes sent.").Add(123)
	r.NewGauge("abnn2_connections_active", "Active.").Set(2)
	r.NewCounterVec("abnn2_phase_bytes_total", "Per phase.", "phase").With("offline").Add(9)
	h := r.NewHistogram("abnn2_inference_seconds", "Latency.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE abnn2_bytes_sent_total counter",
		"abnn2_bytes_sent_total 123",
		"# TYPE abnn2_connections_active gauge",
		"abnn2_connections_active 2",
		`abnn2_phase_bytes_total{phase="offline"} 9`,
		`abnn2_inference_seconds_bucket{le="0.5"} 1`,
		`abnn2_inference_seconds_bucket{le="+Inf"} 2`,
		"abnn2_inference_seconds_sum 3.25",
		"abnn2_inference_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJSONExport(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("c_total", "help").Add(3)
	r.NewCounterVec("v_total", "help", "phase").With("relu").Add(7)
	r.NewHistogram("h_seconds", "help", []float64{1}).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["c_total"].(float64) != 3 {
		t.Fatalf("c_total = %v", doc["c_total"])
	}
	if doc["v_total"].(map[string]any)["relu"].(float64) != 7 {
		t.Fatalf("v_total = %v", doc["v_total"])
	}
	hist := doc["h_seconds"].(map[string]any)
	if hist["count"].(float64) != 1 || hist["sum"].(float64) != 0.5 {
		t.Fatalf("h_seconds = %v", hist)
	}
}

func TestConcurrentUpdatesAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("race_total", "help")
	h := r.NewHistogram("race_seconds", "help", []float64{1})
	v := r.NewCounterVec("race_phase_total", "help", "phase")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 1000)
				v.With("p").Inc()
				if j%100 == 0 {
					_ = r.WritePrometheus(io.Discard)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || v.With("p").Value() != 8000 {
		t.Fatalf("lost updates: %d %d %d", c.Value(), h.Count(), v.With("p").Value())
	}
}

// ServerMetrics fed from trace spans, scraped over HTTP — the live-export
// path of cmd/abnn2-server in miniature.
func TestServerMetricsBridge(t *testing.T) {
	r := NewRegistry()
	sm := NewServerMetrics(r)
	tr := trace.New(sm, trace.WithParty("server"), trace.WithSession(1))

	var ctr transport.Stats
	src := func() transport.Stats { return ctr }
	trace.WithCounters(src)(tr)

	setup := tr.Start("setup")
	ctr.BytesAB += 1000
	ctr.BytesBA += 500
	ctr.Messages += 4
	ctr.Flights += 2
	setup.End(nil)

	batch := tr.Start("batch").SetBatch(2)
	off := tr.Start("offline")
	ctr.BytesBA += 2000
	ctr.Messages += 2
	ctr.Flights += 1
	off.End(nil)
	ctr.BytesAB += 300
	ctr.Messages += 1
	ctr.Flights += 1
	batch.End(nil)

	sm.ConnsTotal.Inc()
	sm.SessionSeconds.Observe(0.05)

	if got := sm.BytesSent.Value(); got != 1300 {
		t.Fatalf("bytes sent = %d, want 1300 (roots only)", got)
	}
	if got := sm.BytesRecvd.Value(); got != 2500 {
		t.Fatalf("bytes received = %d, want 2500", got)
	}
	if got := sm.Rounds.Value(); got != 4 {
		t.Fatalf("rounds = %d, want 4", got)
	}
	if got := sm.Batches.Value(); got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
	if got := sm.PhaseBytes.With("offline").Value(); got != 2000 {
		t.Fatalf("offline phase bytes = %d, want 2000", got)
	}

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"abnn2_bytes_sent_total 1300",
		"abnn2_bytes_received_total 2500",
		"abnn2_rounds_total 4",
		"abnn2_connections_total 1",
		"abnn2_inference_seconds_count 1",
		`abnn2_phase_bytes_total{phase="batch"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q", "", []float64{1, 2, 4, 8})

	if v := h.Quantile(0.5); !math.IsNaN(v) {
		t.Fatalf("empty histogram quantile = %v, want NaN", v)
	}

	// 10 samples in (1,2], 10 in (2,4]: the median sits at the 2 boundary,
	// p25 interpolates to the middle of the first occupied bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
		h.Observe(3)
	}
	if v := h.Quantile(0.5); v != 2 {
		t.Errorf("p50 = %v, want 2 (bucket boundary)", v)
	}
	if v := h.Quantile(0.25); v != 1.5 {
		t.Errorf("p25 = %v, want 1.5 (middle of (1,2])", v)
	}
	if v := h.Quantile(0.75); v != 3 {
		t.Errorf("p75 = %v, want 3 (middle of (2,4])", v)
	}
	if v := h.Quantile(1); v != 4 {
		t.Errorf("p100 = %v, want 4 (top of last occupied bucket)", v)
	}

	// Out-of-range q is an error, not a clamp.
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if v := h.Quantile(q); !math.IsNaN(v) {
			t.Errorf("Quantile(%v) = %v, want NaN", q, v)
		}
	}

	// Samples beyond the last bound land in +Inf and clamp to it.
	h2 := r.NewHistogram("q2", "", []float64{1, 2})
	h2.Observe(100)
	if v := h2.Quantile(0.99); v != 2 {
		t.Errorf("+Inf-bucket quantile = %v, want clamp to 2", v)
	}
}
