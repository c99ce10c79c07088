package abnn2

// Telemetry facade: the observability layer in internal/trace and
// internal/transport, re-exported for users of the public API. Tracing
// is enabled per endpoint via Config.Trace; traffic metering is always
// on and exposed through Client.Stats, Server.Stats, and the Stats
// return of Serve.

import (
	"io"

	"abnn2/internal/trace"
	"abnn2/internal/transport"
)

// Stats aggregates one endpoint's traffic totals. For a Client or
// Server, BytesAB is what that endpoint sent and BytesBA what it
// received; over a lossless transport the two parties' views mirror
// each other.
type Stats = transport.Stats

// TraceSpan is one completed protocol phase: its name ("setup", "baseot",
// "offline", "triplets", "bank", "bank-peer", "batch", "online",
// "input", "matmul", "relu", "pool", "argmax", "output", "idle"),
// nesting (root spans partition a
// session's traffic), layer/batch attribution, wall time, and the
// bytes, messages, and flights it moved.
type TraceSpan = trace.Span

// TraceSink receives completed spans; set one as Config.Trace. Emit may
// be called from the protocol goroutine and must not block for long.
type TraceSink = trace.Sink

// TraceCollector is an in-memory TraceSink for tests and post-run
// analysis.
type TraceCollector = trace.Collector

// NewTraceCollector returns an empty in-memory sink.
func NewTraceCollector() *TraceCollector { return &trace.Collector{} }

// NewTraceWriter returns a sink streaming spans to w as JSON lines —
// the dump format of the CLIs' -trace-out flags, readable back with
// ReadTrace.
func NewTraceWriter(w io.Writer) TraceSink { return trace.NewJSONL(w) }

// MultiTraceSink fans spans out to several sinks; nils are skipped.
func MultiTraceSink(sinks ...TraceSink) TraceSink { return trace.Multi(sinks...) }

// ReadTrace parses a JSONL span dump produced by NewTraceWriter.
func ReadTrace(r io.Reader) ([]TraceSpan, error) { return trace.ReadJSONL(r) }

// TraceRoots filters a dump down to its root spans, which partition the
// session's traffic (summing their bytes equals the endpoint's Stats).
func TraceRoots(spans []TraceSpan) []TraceSpan { return trace.Roots(spans) }

// TraceTable renders a per-phase/per-layer breakdown of a span dump —
// the offline/online communication and latency split of the paper's
// tables — as a fixed-width text table.
func TraceTable(spans []TraceSpan) string {
	return trace.FormatTable(trace.Summarize(spans))
}

// TraceFlight is one wire message stamped at an endpoint: direction,
// per-direction sequence number, size, and the endpoint's wall-clock
// stamp. Both parties stamp every flight, so two dumps of the same
// session merge into a cross-party timeline (see BuildTimeline).
type TraceFlight = trace.Flight

// Timeline is a merged two-party account of one session: both parties'
// flights reconciled onto the server clock, with every interval of the
// session's wall time attributed to compute, wire, admission queue, or
// bank wait. Produced by BuildTimeline, rendered by FormatTimeline.
type Timeline = trace.Timeline

// TimelineInterval is one attributed slice of a Timeline.
type TimelineInterval = trace.Interval

// ReadTraceDump parses a JSONL dump produced by NewTraceWriter,
// returning both spans and flight stamps.
func ReadTraceDump(r io.Reader) ([]TraceSpan, []TraceFlight, error) {
	return trace.ReadDump(r)
}

// BuildTimeline merges client- and server-side spans and flights of one
// session into a reconciled cross-party timeline: it estimates the clock
// offset from matched flight pairs, shifts client stamps onto the server
// clock, and attributes every interval of the session's wall time.
func BuildTimeline(session uint64, spans []TraceSpan, flights []TraceFlight) (*Timeline, error) {
	return trace.BuildTimeline(session, spans, flights)
}

// FormatTimeline renders a Timeline as a fixed-width text report.
func FormatTimeline(tl *Timeline) string { return trace.FormatTimeline(tl) }

// TraceSessions lists the session ids for which flights from both
// parties are present in a merged dump — the sessions BuildTimeline can
// reconcile.
func TraceSessions(flights []TraceFlight) []uint64 { return trace.Sessions(flights) }

// FlightRecorder is a bounded in-memory per-session ring of spans and
// flights — the always-on flight recorder behind the serving runtime's
// /debug/flightrecorder endpoint and anomaly dumps. It implements
// TraceSink, so it can also tee from Config.Trace via MultiTraceSink.
type FlightRecorder = trace.Recorder

// NewFlightRecorder returns a recorder keeping the last perSession
// events for each of the last maxSessions sessions (<=0 selects the
// defaults: 256 events, 64 sessions).
func NewFlightRecorder(perSession, maxSessions int) *FlightRecorder {
	return trace.NewRecorder(perSession, maxSessions)
}

// Default flight-recorder sizing.
const (
	DefaultRecorderEvents   = trace.DefaultRecorderEvents
	DefaultRecorderSessions = trace.DefaultRecorderSessions
)
