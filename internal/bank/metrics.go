package bank

import (
	"fmt"
	"log/slog"

	"abnn2/internal/metrics"
)

// NewMetricsObserver bridges bank events into a metrics registry:
//
//	abnn2_bank_pool_depth{key}      gauge   current pool depth
//	abnn2_bank_hits_total{key}      counter pool draws served
//	abnn2_bank_misses_total{key}    counter dry/unknown-pool draws
//	abnn2_bank_refills_total{key}   counter pairs generated
//	abnn2_bank_refill_errors_total{key}
//	abnn2_bank_claims_total{key}    counter server halves claimed
//	abnn2_bank_claim_misses_total{key}
//	abnn2_bank_claim_evictions_total{key}
//	abnn2_bank_peer_hits_total{key}   counter peer-paired draws served
//	abnn2_bank_peer_misses_total{key}
//	abnn2_bank_peer_claims_total{key}
//	abnn2_bank_peer_claim_misses_total{key}
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
//	abnn2_bank_replenish_rounds_total        remote offline rounds completed
//	abnn2_bank_replenish_retries_total       replenish attempts that failed
//	abnn2_bank_replenish_backoff_ms          current replenisher backoff (0 = healthy)
//
// Register once per registry and pass as Options.Observer (and
// StoreOptions.Observer — the observer is shared).
func NewMetricsObserver(r *metrics.Registry) Observer {
	return &metricsObserver{
		depth:           r.NewGaugeVec("abnn2_bank_pool_depth", "Correlation pool depth.", "key"),
		hits:            r.NewCounterVec("abnn2_bank_hits_total", "Correlation pool draws served.", "key"),
		misses:          r.NewCounterVec("abnn2_bank_misses_total", "Correlation pool draws that found no pair.", "key"),
		refills:         r.NewCounterVec("abnn2_bank_refills_total", "Correlation pairs generated.", "key"),
		refillErrs:      r.NewCounterVec("abnn2_bank_refill_errors_total", "Failed correlation generations.", "key"),
		claims:          r.NewCounterVec("abnn2_bank_claims_total", "Server halves claimed by sessions.", "key"),
		claimMisses:     r.NewCounterVec("abnn2_bank_claim_misses_total", "Claims for unknown or spent correlation IDs.", "key"),
		evictions:       r.NewCounterVec("abnn2_bank_claim_evictions_total", "Parked server halves evicted unclaimed.", "key"),
		peerHits:        r.NewCounterVec("abnn2_bank_peer_hits_total", "Peer-paired pool draws served.", "key"),
		peerMisses:      r.NewCounterVec("abnn2_bank_peer_misses_total", "Peer-paired pool draws that found no half.", "key"),
		peerClaims:      r.NewCounterVec("abnn2_bank_peer_claims_total", "Peer-paired server halves claimed.", "key"),
		peerClaimMisses: r.NewCounterVec("abnn2_bank_peer_claim_misses_total", "Peer-paired claims for unknown or spent IDs.", "key"),
		appends:         r.NewCounter("abnn2_bank_persist_appends_total", "Correlation halves persisted."),
		persistClaims:   r.NewCounter("abnn2_bank_persist_claims_total", "Correlation halves claimed from the durable store (their files unlinked)."),
		fsyncs:          r.NewCounter("abnn2_bank_persist_journal_fsyncs_total", "Claim fsyncs: pool-directory fsyncs that made a claim's unlink durable."),
		recovered:       r.NewGauge("abnn2_bank_persist_recovered_records", "Halves available after the startup recovery scan."),
		quarantined:     r.NewCounter("abnn2_bank_persist_quarantined_total", "Corrupt half files or pool dirs quarantined."),
		persistErrs:     r.NewCounter("abnn2_bank_persist_errors_total", "Durable-store claim/decode failures."),
		replenishRounds: r.NewCounter("abnn2_bank_replenish_rounds_total", "Remote offline replenishment rounds completed."),
		replenishRetry:  r.NewCounter("abnn2_bank_replenish_retries_total", "Remote replenishment attempts that failed."),
		backoffMS:       r.NewGauge("abnn2_bank_replenish_backoff_ms", "Current replenisher backoff in milliseconds (0 when healthy)."),
	}
}

type metricsObserver struct {
	depth           *metrics.GaugeVec
	hits            *metrics.CounterVec
	misses          *metrics.CounterVec
	refills         *metrics.CounterVec
	refillErrs      *metrics.CounterVec
	claims          *metrics.CounterVec
	claimMisses     *metrics.CounterVec
	evictions       *metrics.CounterVec
	peerHits        *metrics.CounterVec
	peerMisses      *metrics.CounterVec
	peerClaims      *metrics.CounterVec
	peerClaimMisses *metrics.CounterVec
	appends         *metrics.Counter
	persistClaims   *metrics.Counter
	fsyncs          *metrics.Counter
	recovered       *metrics.Gauge
	quarantined     *metrics.Counter
	persistErrs     *metrics.Counter
	replenishRounds *metrics.Counter
	replenishRetry  *metrics.Counter
	backoffMS       *metrics.Gauge
}

func (m *metricsObserver) BankEvent(ev Event) {
	k := ev.Key.String()
	switch ev.Kind {
	case "hit":
		m.hits.With(k).Inc()
		m.depth.With(k).Set(int64(ev.Depth))
	case "miss":
		m.misses.With(k).Inc()
	case "refill":
		m.refills.With(k).Inc()
		m.depth.With(k).Set(int64(ev.Depth))
	case "refill-error":
		m.refillErrs.With(k).Inc()
	case "claim":
		m.claims.With(k).Inc()
	case "claim-miss":
		m.claimMisses.With(k).Inc()
	case "evict":
		m.evictions.With(k).Inc()
	case "peer-hit":
		m.peerHits.With(k).Inc()
	case "peer-miss":
		m.peerMisses.With(k).Inc()
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
	case "replenish-round":
		m.replenishRounds.Inc()
	case "replenish-retry":
		m.replenishRetry.Inc()
	case "replenish-backoff":
		m.backoffMS.Set(int64(ev.Depth))
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
