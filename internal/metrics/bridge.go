package metrics

import "abnn2/internal/trace"

// ServerMetrics is the standard metric set of a serving process. It
// doubles as a trace.Sink: pointed at by Config.Trace, every completed
// protocol span updates the live series, so the /metrics endpoint
// reflects exactly what the span dump records.
//
// Byte/message/flight totals accumulate root spans only (setup, idle,
// batch, offline-replenish): root spans partition a session's traffic,
// while nested spans overlap their parents and would double count. The
// per-phase families accumulate every span under its own phase name, which
// is the live view of the paper's per-phase breakdown tables.
type ServerMetrics struct {
	ConnsTotal  *Counter
	ConnsActive *Gauge

	BytesSent  *Counter
	BytesRecvd *Counter
	Messages   *Counter
	Rounds     *Counter

	PhaseBytes *CounterVec
	PhaseNanos *CounterVec

	Batches   *Counter
	Inference *Histogram
	BatchComm *Histogram

	SessionSeconds *Histogram
	SpanErrors     *Counter
}

// NewServerMetrics registers the standard series on r.
func NewServerMetrics(r *Registry) *ServerMetrics {
	return &ServerMetrics{
		ConnsTotal:  r.NewCounter("abnn2_connections_total", "Client connections accepted."),
		ConnsActive: r.NewGauge("abnn2_connections_active", "Client connections currently open."),

		BytesSent:  r.NewCounter("abnn2_bytes_sent_total", "Protocol bytes sent to clients."),
		BytesRecvd: r.NewCounter("abnn2_bytes_received_total", "Protocol bytes received from clients."),
		Messages:   r.NewCounter("abnn2_messages_total", "Framed protocol messages, both directions."),
		Rounds:     r.NewCounter("abnn2_rounds_total", "One-way communication flights (direction changes)."),

		PhaseBytes: r.NewCounterVec("abnn2_phase_bytes_total", "Wire bytes by protocol phase, both directions.", "phase"),
		PhaseNanos: r.NewCounterVec("abnn2_phase_duration_nanoseconds_total", "Wall time by protocol phase.", "phase"),

		Batches:   r.NewCounter("abnn2_batches_total", "Prediction batches served."),
		Inference: r.NewHistogram("abnn2_inference_seconds", "End-to-end latency of one prediction batch (offline+online).", DurationBuckets),
		BatchComm: r.NewHistogram("abnn2_batch_bytes", "Wire bytes of one prediction batch, both directions.", SizeBuckets),

		SessionSeconds: r.NewHistogram("abnn2_session_seconds", "Lifetime of one client connection, accept to close.", DurationBuckets),
		SpanErrors:     r.NewCounter("abnn2_span_errors_total", "Protocol phases that ended with an error."),
	}
}

// Emit implements trace.Sink.
func (m *ServerMetrics) Emit(s trace.Span) {
	if s.Parent == 0 {
		m.BytesSent.Add(s.BytesSent)
		m.BytesRecvd.Add(s.BytesRecvd)
		m.Messages.Add(s.Messages)
		m.Rounds.Add(s.Flights)
	}
	m.PhaseBytes.With(s.Name).Add(s.Bytes())
	m.PhaseNanos.With(s.Name).Add(int64(s.Dur))
	if s.Name == "batch" && s.Err == "" {
		m.Batches.Inc()
		m.Inference.Observe(s.Dur.Seconds())
		m.BatchComm.Observe(float64(s.Bytes()))
	}
	if s.Err != "" {
		m.SpanErrors.Inc()
	}
}
