package serve

import (
	"time"

	"abnn2/internal/metrics"
)

// Metrics is the serving runtime's metric set, registered alongside the
// protocol-level ServerMetrics on the same registry. Every method on a
// nil *Metrics is a no-op, so an uninstrumented runtime pays nothing.
type Metrics struct {
	Handshakes     *metrics.Counter
	HandshakeFails *metrics.Counter
	Shed           *metrics.CounterVec // by rejection code
	ShedHinted     *metrics.Counter    // retryable sheds that carried a retry-after hint
	Degraded       *metrics.Counter    // sessions admitted inline because pools were dry
	SessionsActive *metrics.Gauge
	SessionsTotal  *metrics.CounterVec // by model name
	SessionsFailed *metrics.Counter
	OfflineTotal   *metrics.Counter // admitted remote offline-replenishment sessions
	OfflineFailed  *metrics.Counter // offline sessions that ended with an error
	Ready          *metrics.Gauge   // 1 when /readyz answers 200

	// SLO burn-rate series (PR 9): every finished inference session
	// counts toward SLOSessions; sessions slower than the configured SLO
	// count toward SLOBreaches, so breach/session is the burn rate.
	SLOSessions    *metrics.Counter      // sessions measured against the latency SLO
	SLOBreaches    *metrics.CounterVec   // SLO-breaching sessions, by model
	SessionLatency *metrics.HistogramVec // end-to-end session latency, by model
	DiagDumps      *metrics.Counter      // anomaly-triggered flight-recorder dumps written
	DiagSuppressed *metrics.Counter      // anomaly dumps suppressed by the dump cap
}

// NewMetrics registers the serving series on r.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Handshakes:     r.NewCounter("abnn2_serve_handshakes_total", "Connections that began the model handshake."),
		HandshakeFails: r.NewCounter("abnn2_serve_handshake_failures_total", "Handshakes that failed before admission (timeout, malformed hello, dead conn)."),
		Shed:           r.NewCounterVec("abnn2_serve_shed_total", "Connections shed with a typed rejection, by code.", "code"),
		ShedHinted:     r.NewCounter("abnn2_serve_shed_hinted_total", "Retryable sheds that carried a retry-after hint."),
		Degraded:       r.NewCounter("abnn2_serve_degraded_total", "Sessions admitted with inline (non-banked) offline provisioning because pools were dry."),
		SessionsActive: r.NewGauge("abnn2_serve_sessions_active", "Admitted sessions currently being served."),
		SessionsTotal:  r.NewCounterVec("abnn2_serve_sessions_total", "Admitted sessions, by model.", "model"),
		SessionsFailed: r.NewCounter("abnn2_serve_sessions_failed_total", "Admitted sessions that ended with a protocol error."),
		OfflineTotal:   r.NewCounter("abnn2_serve_offline_sessions_total", "Admitted remote offline-replenishment sessions."),
		OfflineFailed:  r.NewCounter("abnn2_serve_offline_sessions_failed_total", "Remote offline-replenishment sessions that ended with an error."),
		Ready:          r.NewGauge("abnn2_serve_ready", "Whether the runtime reports ready (prewarm done, not draining)."),
		SLOSessions:    r.NewCounter("abnn2_slo_sessions_total", "Inference sessions measured against the latency SLO."),
		SLOBreaches:    r.NewCounterVec("abnn2_slo_breaches_total", "Inference sessions that breached the latency SLO, by model.", "model"),
		SessionLatency: r.NewHistogramVec("abnn2_session_latency_seconds", "End-to-end inference session latency, by model.", "model", metrics.DurationBuckets),
		DiagDumps:      r.NewCounter("abnn2_diag_dumps_total", "Anomaly-triggered flight-recorder dumps written to the diagnostics directory."),
		DiagSuppressed: r.NewCounter("abnn2_diag_suppressed_total", "Anomaly dumps suppressed by the per-process dump cap."),
	}
}

func (m *Metrics) handshake() {
	if m != nil {
		m.Handshakes.Inc()
	}
}

func (m *Metrics) handshakeFail() {
	if m != nil {
		m.HandshakeFails.Inc()
	}
}

func (m *Metrics) shed(rej Rejection) {
	if m == nil {
		return
	}
	m.Shed.With(rej.Code).Inc()
	if rej.Retryable && rej.RetryAfterMillis > 0 {
		m.ShedHinted.Inc()
	}
}

func (m *Metrics) degraded() {
	if m != nil {
		m.Degraded.Inc()
	}
}

// sessionStart and sessionEnd book one admitted session under its class:
// replenishment sessions have their own pair of counters.
func (m *Metrics) sessionStart(model string, offline bool) {
	if m == nil {
		return
	}
	m.SessionsActive.Add(1)
	if offline {
		m.OfflineTotal.Inc()
	} else {
		m.SessionsTotal.With(model).Inc()
	}
}

func (m *Metrics) sessionEnd(err error, offline bool) {
	if m == nil {
		return
	}
	m.SessionsActive.Add(-1)
	switch {
	case err == nil:
	case offline:
		m.OfflineFailed.Inc()
	default:
		m.SessionsFailed.Inc()
	}
}

// observeSession records a finished inference session's latency and its
// SLO outcome. slo <= 0 disables breach accounting but still feeds the
// latency histogram.
func (m *Metrics) observeSession(model string, elapsed, slo time.Duration) {
	if m == nil {
		return
	}
	m.SessionLatency.With(model).Observe(elapsed.Seconds())
	if slo > 0 {
		m.SLOSessions.Inc()
		if elapsed > slo {
			m.SLOBreaches.With(model).Inc()
		}
	}
}

func (m *Metrics) diagDump() {
	if m != nil {
		m.DiagDumps.Inc()
	}
}

func (m *Metrics) diagSuppressed() {
	if m != nil {
		m.DiagSuppressed.Inc()
	}
}

func (m *Metrics) setReady(ready bool) {
	if m == nil {
		return
	}
	if ready {
		m.Ready.Set(1)
	} else {
		m.Ready.Set(0)
	}
}
