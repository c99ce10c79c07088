package metrics

import (
	"bytes"
	"testing"
)

// TestExpositionIsByteStable pins both export formats for one metric of
// each of the five kinds (an escaped label value, a family in non-sorted
// first-use order and an unused family included) against strings recorded
// before the three labelled families became one generic Vec. The scrape is
// an external contract — CI's integration job greps /metrics and /vars —
// so a refactor of this package must leave it byte-identical.
func TestExpositionIsByteStable(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("t_requests_total", "Requests.").Add(3)
	r.NewGauge("t_open", "Open conns.").Set(-2)
	h := r.NewHistogram("t_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(7)
	cv := r.NewCounterVec("t_bytes_total", "Bytes by phase.", "phase")
	cv.With("offline").Add(10)
	cv.With(`on"line`).Add(4)
	hv := r.NewHistogramVec("t_model_seconds", "Latency by model.", "model", []float64{0.5, 2.5})
	hv.With("mnist").Observe(0.25)
	hv.With("mnist").Observe(3)
	hv.With("cnn").Observe(1)
	r.NewCounterVec("t_empty_total", "Never used.", "k")

	const wantProm = `# HELP t_requests_total Requests.
# TYPE t_requests_total counter
t_requests_total 3
# HELP t_open Open conns.
# TYPE t_open gauge
t_open -2
# HELP t_seconds Latency.
# TYPE t_seconds histogram
t_seconds_bucket{le="0.1"} 1
t_seconds_bucket{le="1"} 2
t_seconds_bucket{le="+Inf"} 3
t_seconds_sum 7.55
t_seconds_count 3
# HELP t_bytes_total Bytes by phase.
# TYPE t_bytes_total counter
t_bytes_total{phase="offline"} 10
t_bytes_total{phase="on\"line"} 4
# HELP t_model_seconds Latency by model.
# TYPE t_model_seconds histogram
t_model_seconds_bucket{model="mnist",le="0.5"} 1
t_model_seconds_bucket{model="mnist",le="2.5"} 1
t_model_seconds_bucket{model="mnist",le="+Inf"} 2
t_model_seconds_sum{model="mnist"} 3.25
t_model_seconds_count{model="mnist"} 2
t_model_seconds_bucket{model="cnn",le="0.5"} 0
t_model_seconds_bucket{model="cnn",le="2.5"} 1
t_model_seconds_bucket{model="cnn",le="+Inf"} 1
t_model_seconds_sum{model="cnn"} 1
t_model_seconds_count{model="cnn"} 1
# HELP t_empty_total Never used.
# TYPE t_empty_total counter
`
	const wantJSON = `{
  "t_bytes_total": {
    "offline": 10,
    "on\"line": 4
  },
  "t_empty_total": {},
  "t_model_seconds": {
    "cnn": {
      "buckets": {
        "0.5": 0,
        "2.5": 1
      },
      "count": 1,
      "sum": 1
    },
    "mnist": {
      "buckets": {
        "0.5": 1,
        "2.5": 1
      },
      "count": 2,
      "sum": 3.25
    }
  },
  "t_open": -2,
  "t_requests_total": 3,
  "t_seconds": {
    "buckets": {
      "0.1": 1,
      "1": 2
    },
    "count": 3,
    "sum": 7.55
  }
}
`
	var prom, js bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if prom.String() != wantProm {
		t.Errorf("Prometheus exposition changed:\n got:\n%s\nwant:\n%s", prom.String(), wantProm)
	}
	if js.String() != wantJSON {
		t.Errorf("JSON exposition changed:\n got:\n%s\nwant:\n%s", js.String(), wantJSON)
	}
}
