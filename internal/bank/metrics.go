package bank

import (
	"fmt"
	"log/slog"

	"abnn2/internal/metrics"
)

// NewMetricsObserver bridges the bank events a server raises into a
// metrics registry. A server draws nothing and fills no loopback pool: it
// stores the halves its remote clients prefetch and claims them by id, so
// its series are the claims and the durable store's:
//
//	abnn2_bank_claim_misses_total{key}       loopback claims that found no half
//	abnn2_bank_peer_claims_total{key}        peer-paired server halves claimed
//	abnn2_bank_peer_claim_misses_total{key}  peer-paired claims for unknown or spent IDs
//
// plus the durable-store series (plain, so every series is visible in a
// scrape even at zero — the CI integration job greps for them):
//
//	abnn2_bank_persist_appends_total         halves persisted
//	abnn2_bank_persist_claims_total          halves claimed (their files unlinked)
//	abnn2_bank_persist_journal_fsyncs_total  claim fsyncs of a pool directory
//	abnn2_bank_persist_recovered_records     halves available after recovery
//	abnn2_bank_persist_quarantined_total     corrupt half files/pool dirs quarantined
//	abnn2_bank_persist_errors_total          store claim/decode failures
//
// Register once per registry and pass as Options.Observer (and
// StoreOptions.Observer — the observer is shared).
func NewMetricsObserver(r *metrics.Registry) Observer {
	return &metricsObserver{
		claimMisses:     r.NewCounterVec("abnn2_bank_claim_misses_total", "Claims for unknown or spent correlation IDs.", "key"),
		peerClaims:      r.NewCounterVec("abnn2_bank_peer_claims_total", "Peer-paired server halves claimed.", "key"),
		peerClaimMisses: r.NewCounterVec("abnn2_bank_peer_claim_misses_total", "Peer-paired claims for unknown or spent IDs.", "key"),
		appends:         r.NewCounter("abnn2_bank_persist_appends_total", "Correlation halves persisted."),
		persistClaims:   r.NewCounter("abnn2_bank_persist_claims_total", "Correlation halves claimed from the durable store (their files unlinked)."),
		fsyncs:          r.NewCounter("abnn2_bank_persist_journal_fsyncs_total", "Claim fsyncs: pool-directory fsyncs that made a claim's unlink durable."),
		recovered:       r.NewGauge("abnn2_bank_persist_recovered_records", "Halves available after the startup recovery scan."),
		quarantined:     r.NewCounter("abnn2_bank_persist_quarantined_total", "Corrupt half files or pool dirs quarantined."),
		persistErrs:     r.NewCounter("abnn2_bank_persist_errors_total", "Durable-store claim/decode failures."),
	}
}

type metricsObserver struct {
	claimMisses     *metrics.CounterVec
	peerClaims      *metrics.CounterVec
	peerClaimMisses *metrics.CounterVec
	appends         *metrics.Counter
	persistClaims   *metrics.Counter
	fsyncs          *metrics.Counter
	recovered       *metrics.Gauge
	quarantined     *metrics.Counter
	persistErrs     *metrics.Counter
}

func (m *metricsObserver) BankEvent(ev Event) {
	k := ev.Key.String()
	switch ev.Kind {
	case "claim-miss":
		m.claimMisses.With(k).Inc()
	case "peer-claim":
		m.peerClaims.With(k).Inc()
	case "peer-claim-miss":
		m.peerClaimMisses.With(k).Inc()
	case "persist-append":
		m.appends.Inc()
	case "persist-claim":
		m.persistClaims.Inc()
	case "persist-claim-fsync":
		m.fsyncs.Inc()
	case "persist-recover":
		m.recovered.Set(int64(ev.Depth))
	case "persist-quarantine":
		m.quarantined.Inc()
	case "persist-claim-drop", "persist-decode-error":
		m.persistErrs.Inc()
	}
}

// LogClaims returns an Observer that logs one "bank claim" line per
// durable claim, naming the half's pool by its scope digest and the
// half by its correlation id, and passes every event on to next (nil for
// none). Loopback claims touch no disk and log nothing. A (scope, id)
// pair in two lines of one party's logs is a half spent twice:
// scripts/crashtest.sh and CI check for exactly that.
func LogClaims(log *slog.Logger, next Observer) Observer {
	return observerFunc(func(ev Event) {
		if ev.Kind == "persist-claim" {
			log.Info("bank claim", "scope", ev.Pool, "id", fmt.Sprintf("%016x", ev.ID))
		}
		if next != nil {
			next.BankEvent(ev)
		}
	})
}

// observerFunc adapts a func to the Observer interface.
type observerFunc func(Event)

func (f observerFunc) BankEvent(ev Event) { f(ev) }
