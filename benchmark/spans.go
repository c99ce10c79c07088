package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// gatedSink is the trace sink of a traced run: it keeps spans and flights
// in memory, and only while armed, so that warm-up requests leave no
// spans behind. Both parties of a run share one; a span names its party.
type gatedSink struct {
	armed   atomic.Bool
	mu      sync.Mutex
	spans   []traceSpan
	flights []traceFlight
}

func (g *gatedSink) Emit(s traceSpan) {
	if g.armed.Load() {
		g.mu.Lock()
		g.spans = append(g.spans, s)
		g.mu.Unlock()
	}
}

func (g *gatedSink) EmitFlight(f traceFlight) {
	if g.armed.Load() {
		g.mu.Lock()
		g.flights = append(g.flights, f)
		g.mu.Unlock()
	}
}

// ledger is the engine's own account of a request, from the spans it
// emits: per-request sums by span name, then the median over requests.
type ledger struct {
	Requests int
	// Client-side spans, median seconds per request. Matmul is the
	// exception: only the server multiplies, so it is the server's span.
	Batch, Bank, Offline, Triplets, Online float64
	Input, Matmul, ReLU, Pool, Argmax      float64
	Output                                 float64
	// Client-side wire counters of the two phases, median per request.
	OfflineBytes, OnlineBytes     float64
	OfflineFlights, OnlineFlights float64
	// Residual is |batch - sum of its direct children| / batch, median.
	Residual        float64
	SpansPerRequest float64
}

// tilingLimit is the largest residual a traced run may show: above it the
// spans no longer account for the request and the ledger is not trusted.
const tilingLimit = 0.05

type spanKey struct {
	party   string
	session uint64
	id      uint64
}

// perRequest accumulates one batch root's descendants.
type perRequest struct {
	dur      map[string]float64 // seconds by span name, the root included
	children float64            // seconds of the root's direct children
	bytes    map[string]float64
	flights  map[string]float64
}

// buildLedger groups spans under their "batch" root and takes medians.
// A root that began before since is left out: the sink was armed between
// requests, and the server may still have been finishing the last warm-up.
func buildLedger(spans []traceSpan, since time.Time) (ledger, error) {
	byKey := make(map[spanKey]traceSpan, len(spans))
	for _, s := range spans {
		byKey[spanKey{s.Party, s.Session, s.ID}] = s
	}
	reqs := map[spanKey]*perRequest{}
	var order []spanKey // roots in emission order, for determinism
	counted := 0        // spans that belong to a counted request
	for _, s := range spans {
		// Walk up to the root.
		root := s
		for root.Parent != 0 {
			p, ok := byKey[spanKey{s.Party, s.Session, root.Parent}]
			if !ok {
				return ledger{}, fmt.Errorf("span %d (%s) of %s has no parent %d in the dump",
					root.ID, root.Name, s.Party, root.Parent)
			}
			root = p
		}
		if root.Name != "batch" || root.Start.Before(since) {
			continue // setup and idle are not part of a request
		}
		k := spanKey{s.Party, s.Session, root.ID}
		r := reqs[k]
		if r == nil {
			r = &perRequest{dur: map[string]float64{}, bytes: map[string]float64{}, flights: map[string]float64{}}
			reqs[k] = r
			order = append(order, k)
		}
		counted++
		r.dur[s.Name] += s.Dur.Seconds()
		r.bytes[s.Name] += float64(s.BytesSent + s.BytesRecvd)
		r.flights[s.Name] += float64(s.Flights)
		if s.Parent == root.ID {
			r.children += s.Dur.Seconds()
		}
	}
	var client, server []*perRequest
	for _, k := range order {
		if k.party == "client" {
			client = append(client, reqs[k])
		} else {
			server = append(server, reqs[k])
		}
	}
	if len(client) == 0 {
		return ledger{}, fmt.Errorf("no client batch span among %d spans", len(spans))
	}
	med := func(rs []*perRequest, f func(*perRequest) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	dur := func(name string) func(*perRequest) float64 {
		return func(r *perRequest) float64 { return r.dur[name] }
	}
	l := ledger{
		Requests:        len(client),
		Batch:           med(client, dur("batch")),
		Bank:            med(client, dur("bank")),
		Offline:         med(client, dur("offline")),
		Triplets:        med(client, dur("triplets")),
		Online:          med(client, dur("online")),
		Input:           med(client, dur("input")),
		Matmul:          med(server, dur("matmul")),
		ReLU:            med(client, dur("relu")),
		Pool:            med(client, dur("pool")),
		Argmax:          med(client, dur("argmax")),
		Output:          med(client, dur("output")),
		OfflineBytes:    med(client, func(r *perRequest) float64 { return r.bytes["offline"] }),
		OnlineBytes:     med(client, func(r *perRequest) float64 { return r.bytes["online"] }),
		OfflineFlights:  med(client, func(r *perRequest) float64 { return r.flights["offline"] }),
		OnlineFlights:   med(client, func(r *perRequest) float64 { return r.flights["online"] }),
		SpansPerRequest: float64(counted) / float64(len(client)),
	}
	l.Residual = med(client, func(r *perRequest) float64 {
		d := r.dur["batch"] - r.children
		if d < 0 {
			d = -d
		}
		return share(d, r.dur["batch"])
	})
	return l, nil
}
