package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// Export surfaces: Prometheus text exposition format (format version
// 0.0.4, what every scraper speaks) and an expvar-style JSON document
// for humans and ad-hoc tooling.

// family is a Vec of any kind, as exposition walks it.
type family interface {
	series(visit func(label, value string, kid any))
}

// WritePrometheus renders every registered metric in Prometheus text
// format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	r.each(func(m *metric) {
		pf("# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		if f, ok := m.item.(family); ok {
			f.series(func(label, value string, kid any) {
				promSeries(pf, m.name, label+"="+strconv.Quote(value), kid)
			})
			return
		}
		promSeries(pf, m.name, "", m.item)
	})
	return err
}

// promSeries writes one series' sample lines: a scalar metric's (labels
// empty) or those of the child of a family that labels tells apart.
func promSeries(pf func(string, ...any), name, labels string, item any) {
	switch it := item.(type) {
	case interface{ Value() int64 }: // *Counter, *Gauge
		pf("%s%s %d\n", name, braces(labels), it.Value())
	case *Histogram:
		bounds, cum, sum, count := it.snapshot()
		for i, b := range bounds {
			pf("%s_bucket%s %d\n", name, braces(labels, "le="+strconv.Quote(formatFloat(b))), cum[i])
		}
		pf("%s_bucket%s %d\n", name, braces(labels, `le="+Inf"`), count)
		pf("%s_sum%s %s\n%s_count%s %d\n", name, braces(labels), formatFloat(sum), name, braces(labels), count)
	}
}

// braces renders a label set from its non-empty pairs; an empty set is no
// braces at all.
func braces(pairs ...string) string {
	set := ""
	for _, p := range pairs {
		if p != "" {
			set += "," + p
		}
	}
	if set == "" {
		return ""
	}
	return "{" + set[1:] + "}"
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip representation).
func formatFloat(f float64) string {
	if math.IsInf(f, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// WriteJSON renders every registered metric as one JSON object, keyed by
// metric name. Counters and gauges become numbers; histograms become
// {count, sum, buckets}; a family becomes an object of those keyed by
// label value.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := make(map[string]any)
	r.each(func(m *metric) {
		if f, ok := m.item.(family); ok {
			kids := make(map[string]any)
			f.series(func(_, value string, kid any) { kids[value] = jsonSeries(kid) })
			doc[m.name] = kids
			return
		}
		doc[m.name] = jsonSeries(m.item)
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// jsonSeries is one series' JSON value.
func jsonSeries(item any) any {
	switch it := item.(type) {
	case interface{ Value() int64 }:
		return it.Value()
	case *Histogram:
		bounds, cum, sum, count := it.snapshot()
		buckets := make(map[string]uint64, len(bounds))
		for i, b := range bounds {
			buckets[formatFloat(b)] = cum[i]
		}
		return map[string]any{"count": count, "sum": sum, "buckets": buckets}
	}
	return nil
}

// Handler serves the registry in Prometheus text format (mount at
// /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// JSONHandler serves the registry as a JSON document (mount at /vars).
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
}
