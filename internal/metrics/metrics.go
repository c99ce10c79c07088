// Package metrics is a small dependency-free metrics registry: counters,
// gauges, and fixed-bucket histograms, exported in Prometheus text
// format and as an expvar-style JSON document. It exists so the serving
// binaries can expose live protocol telemetry (bytes, rounds, latency
// distributions) without pulling a client library into a cryptographic
// codebase.
//
// Metric values are updated lock-free (atomics) on the hot path;
// histograms take a short mutex per observation. Registration happens
// once at startup and panics on misuse (duplicate or invalid names),
// mirroring expvar.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter; negative deltas are ignored (counters
// never go down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the gauge by n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution metric. Buckets follow the
// Prometheus convention: counts[i] observations fell at or below
// bounds[i]; one implicit +Inf bucket catches the rest.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations so far.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution from the bucket counts, interpolating linearly inside the
// winning bucket the way Prometheus' histogram_quantile does. Values in
// the +Inf bucket clamp to the highest finite bound. Returns NaN when
// nothing has been observed or q is out of range — the load harness uses
// this to report p50/p99 straight from the live series.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	bounds, cum, _, count := h.snapshot()
	if count == 0 {
		return math.NaN()
	}
	rank := q * float64(count)
	for i, b := range bounds {
		if float64(cum[i]) >= rank {
			lo, loCum := 0.0, uint64(0)
			if i > 0 {
				lo, loCum = bounds[i-1], cum[i-1]
			}
			in := cum[i] - loCum
			if in == 0 {
				return b
			}
			return lo + (b-lo)*(rank-float64(loCum))/float64(in)
		}
	}
	return bounds[len(bounds)-1] // +Inf bucket: clamp to the last bound
}

// snapshot returns (bounds, cumulative counts per bound, sum, count).
func (h *Histogram) snapshot() ([]float64, []uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return h.bounds, cum, h.sum, h.count
}

// DurationBuckets is a decade ladder suited to protocol phases: 100µs up
// to ~2 minutes.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// SizeBuckets is a power-of-4 byte ladder: 256B up to 1GiB.
var SizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// Vec is a family of metrics of one kind distinguished by one label:
// bytes per protocol phase, pool depth per correlation key, session
// latency per model (its histograms sharing one bucket ladder).
type Vec[T any] struct {
	label string
	child func() *T // builds the child for a label value first used
	mu    sync.Mutex
	kids  map[string]*T
	order []string
}

// The three families the registry hands out.
type (
	CounterVec   = Vec[Counter]
	GaugeVec     = Vec[Gauge]
	HistogramVec = Vec[Histogram]
)

func newVec[T any](label string, child func() *T) *Vec[T] {
	return &Vec[T]{label: label, child: child, kids: make(map[string]*T)}
}

// With returns the child for the given label value, creating it on first
// use.
func (v *Vec[T]) With(value string) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	kid, ok := v.kids[value]
	if !ok {
		kid = v.child()
		v.kids[value] = kid
		v.order = append(v.order, value)
	}
	return kid
}

// children returns (label values, children) in first-use order.
func (v *Vec[T]) children() ([]string, []*T) {
	v.mu.Lock()
	defer v.mu.Unlock()
	vals := make([]string, len(v.order))
	copy(vals, v.order)
	kids := make([]*T, len(vals))
	for i, val := range vals {
		kids[i] = v.kids[val]
	}
	return vals, kids
}

// series is exposition's view of a family, whatever its kind: each child
// in first-use order, with the label pair that tells it apart.
func (v *Vec[T]) series(visit func(label, value string, kid any)) {
	vals, kids := v.children()
	for i, val := range vals {
		visit(v.label, val, kids[i])
	}
}

// metric couples a registered metric with its metadata.
type metric struct {
	name string
	help string
	kind string // Prometheus TYPE: counter, gauge or histogram
	item any    // *Counter | *Gauge | *Histogram, or a *Vec of one of them
}

// Registry holds named metrics and renders them for export. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) register(name, help, kind string, item any) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	for _, c := range name {
		if !(c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
			panic(fmt.Sprintf("metrics: invalid metric name %q", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	m := &metric{name: name, help: help, kind: kind, item: item}
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", c)
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", g)
	return g
}

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds (must be sorted ascending; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 || !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram %q needs sorted non-empty buckets", name))
	}
	h := newHistogram(bounds)
	r.register(name, help, "histogram", h)
	return h
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// NewCounterVec registers and returns a single-label counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := newVec(label, func() *Counter { return &Counter{} })
	r.register(name, help, "counter", v)
	return v
}

// NewHistogramVec registers and returns a single-label histogram family
// with a shared bucket ladder.
func (r *Registry) NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if len(bounds) == 0 || !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram family %q needs sorted non-empty buckets", name))
	}
	v := newVec(label, func() *Histogram { return newHistogram(bounds) })
	r.register(name, help, "histogram", v)
	return v
}

// NewGaugeVec registers and returns a single-label gauge family.
func (r *Registry) NewGaugeVec(name, help, label string) *GaugeVec {
	v := newVec(label, func() *Gauge { return &Gauge{} })
	r.register(name, help, "gauge", v)
	return v
}

// each visits registered metrics in registration order.
func (r *Registry) each(fn func(*metric)) {
	r.mu.Lock()
	snapshot := make([]*metric, len(r.ordered))
	copy(snapshot, r.ordered)
	r.mu.Unlock()
	for _, m := range snapshot {
		fn(m)
	}
}
