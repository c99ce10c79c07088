// Package trace is the protocol telemetry layer: a lightweight span API
// that records what every phase of a secure-inference session costs —
// wall time, bytes in each direction, framed messages, one-way flights,
// and worker parallelism — and hands completed spans to a pluggable Sink.
//
// A span is one protocol phase. The taxonomy (see DESIGN.md,
// "Observability") mirrors the paper's evaluation breakdowns:
//
//	setup      session set-up: the triplet and GC subsystems' constructors
//	baseot     one base-OT batch (Batch = its number of OTs): two under
//	           setup, one more under offline when a plan widens the session
//	idle       a server's between-batches wait for the next announcement
//	batch      one full prediction batch (offline + online), root span
//	offline    the data-independent phase of a batch, when run inline
//	triplets   one layer's triplet generation (Layer set)
//	bank       a session drawing/claiming a precomputed correlation
//	online     the data-dependent phase of a batch
//	input      masked-input transfer
//	matmul     one layer's online matrix multiplication (Layer set)
//	relu       one layer's ReLU protocol (Layer set)
//	pool       one layer's max-pool protocol (Layer set)
//	argmax     the private argmax finish
//	output     output-share transfer
//
// Byte counters come in through a caller-supplied closure returning the
// endpoint's transport.Stats (a transport.Meter's Snapshot), so core and
// the public abnn2 package can share one Tracer; transport
// itself imports nothing of this package.
//
// A nil *Tracer is the disabled tracer: every method is a no-op and the
// hot path allocates nothing, so instrumentation can stay unconditional
// at the call sites.
package trace

import (
	"sync"
	"time"

	"abnn2/internal/transport"
)

// Span is one completed protocol phase. Byte/message/flight counts are
// deltas of the session's wire counters between the span's start and
// end, observed from one endpoint: BytesSent is what this party put on
// the wire during the phase, BytesRecvd what it took off.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // 0 = root span
	// Party identifies the endpoint ("server" or "client").
	Party string `json:"party,omitempty"`
	// Session correlates spans with connection logs and metrics; the
	// serving CLI assigns one ID per accepted connection.
	Session uint64 `json:"session,omitempty"`
	// Label is free-form run identity (benchmarks tag table rows).
	Label string `json:"label,omitempty"`
	Name  string `json:"name"`
	// Layer is the network layer index for per-layer phases, -1 otherwise.
	Layer int `json:"layer"`
	// Batch is the prediction batch size, 0 when not batch-scoped.
	Batch int `json:"batch,omitempty"`
	// Workers is the resolved kernel parallelism, 0 when not recorded.
	Workers int `json:"workers,omitempty"`

	Start      time.Time     `json:"start"`
	Dur        time.Duration `json:"dur_ns"`
	BytesSent  int64         `json:"bytes_sent"`
	BytesRecvd int64         `json:"bytes_recvd"`
	Messages   int64         `json:"messages"`
	Flights    int64         `json:"flights"`
	Err        string        `json:"err,omitempty"`
}

// Bytes returns the span's total wire traffic, both directions.
func (s Span) Bytes() int64 { return s.BytesSent + s.BytesRecvd }

// Sink receives completed spans. Implementations must be safe for
// concurrent Emit calls: two parties of an in-process run may share one
// sink.
type Sink interface {
	Emit(Span)
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithParty labels every span with the endpoint role.
func WithParty(p string) Option { return func(t *Tracer) { t.party = p } }

// WithSession labels every span with a session/connection ID.
func WithSession(id uint64) Option { return func(t *Tracer) { t.session = id } }

// WithLabel labels every span with a free-form run identity.
func WithLabel(l string) Option { return func(t *Tracer) { t.label = l } }

// WithCounters supplies the cumulative wire-counter source read at span
// boundaries: one endpoint's transport.Stats, BytesAB what it sent and
// BytesBA what it received, all monotonically non-decreasing. Without it
// spans record durations only.
func WithCounters(src func() transport.Stats) Option { return func(t *Tracer) { t.counters = src } }

// Tracer hands out spans for one session. The nil Tracer is valid and
// disabled: Start returns nil and nil *SpanCtx methods no-op without
// allocating, so call sites need no enabled-check.
//
// A Tracer tracks span nesting with an internal stack, which matches the
// strictly sequential round structure of the protocols; spans of one
// Tracer must be started and ended from one goroutine at a time.
type Tracer struct {
	sink     Sink
	party    string
	session  uint64
	label    string
	counters func() transport.Stats

	mu     sync.Mutex
	nextID uint64
	stack  []*SpanCtx
}

// New returns a Tracer emitting to sink. A nil sink yields the disabled
// (nil) tracer.
func New(sink Sink, opts ...Option) *Tracer {
	if sink == nil {
		return nil
	}
	t := &Tracer{sink: sink}
	for _, o := range opts {
		o(t)
	}
	return t
}

// SpanCtx is an in-flight span. Attribute setters return the receiver so
// instrumentation reads as one expression; all methods are nil-safe.
type SpanCtx struct {
	t    *Tracer
	span Span
	base transport.Stats
}

// Start opens a span. The currently open span (if any) becomes its
// parent. Returns nil when the tracer is disabled.
func (t *Tracer) Start(name string) *SpanCtx {
	if t == nil {
		return nil
	}
	sc := &SpanCtx{t: t}
	sc.span.Name = name
	sc.span.Layer = -1
	sc.span.Party = t.party
	sc.span.Session = t.session
	sc.span.Label = t.label
	t.mu.Lock()
	t.nextID++
	sc.span.ID = t.nextID
	if n := len(t.stack); n > 0 {
		sc.span.Parent = t.stack[n-1].span.ID
	}
	t.stack = append(t.stack, sc)
	t.mu.Unlock()
	if t.counters != nil {
		sc.base = t.counters()
	}
	sc.span.Start = time.Now()
	return sc
}

// Layer records the network layer index the span belongs to.
func (sc *SpanCtx) SetLayer(i int) *SpanCtx {
	if sc != nil {
		sc.span.Layer = i
	}
	return sc
}

// SetBatch records the prediction batch size.
func (sc *SpanCtx) SetBatch(n int) *SpanCtx {
	if sc != nil {
		sc.span.Batch = n
	}
	return sc
}

// SetWorkers records the resolved kernel parallelism.
func (sc *SpanCtx) SetWorkers(n int) *SpanCtx {
	if sc != nil {
		sc.span.Workers = n
	}
	return sc
}

// End completes the span — duration and counter deltas are computed here
// — and emits it to the sink. err, when non-nil, is recorded on the
// span. End is idempotent in the sense that a span can only be popped
// once; ending a span also abandons any of its children that were never
// ended themselves.
func (sc *SpanCtx) End(err error) {
	if sc == nil {
		return
	}
	sc.span.Dur = time.Since(sc.span.Start)
	if sc.t.counters != nil {
		d := sc.t.counters().Sub(sc.base)
		sc.span.BytesSent = d.BytesAB
		sc.span.BytesRecvd = d.BytesBA
		sc.span.Messages = d.Messages
		sc.span.Flights = d.Flights
	}
	if err != nil {
		sc.span.Err = err.Error()
	}
	sc.t.mu.Lock()
	for i := len(sc.t.stack) - 1; i >= 0; i-- {
		if sc.t.stack[i] == sc {
			sc.t.stack = sc.t.stack[:i]
			break
		}
	}
	sc.t.mu.Unlock()
	sc.t.sink.Emit(sc.span)
}
