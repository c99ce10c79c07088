package abnn2

// Correlation-bank facade: the offline precompute service in
// internal/bank, re-exported for users of the public API. A bank
// pre-generates each session's data-independent material (OT-extension
// flights, per-layer matmul triplets, the client's future shares) off the
// request path; sessions configured with Config.Bank then draw a
// correlation pair instead of running the offline phase inline, so the
// online phase is round-trips plus matmul only.
//
// A bank's pools are keyed by the peer their halves were generated with.
// The loopback pools are filled inside this process — an in-process
// trusted dealer, so both endpoints of a session drawing from them must
// share the same *Bank instance (one process, or a load harness driving
// its own server). A remote peer's pools are filled over the wire by
// Client.Prefetch, each party keeping its half in its own BankStore.
// See DESIGN.md, "Correlation bank", for the security argument and the
// single-use guarantee.

import (
	"errors"
	"fmt"

	"abnn2/internal/bank"
)

// ErrBankDry reports that a session required banked provisioning
// (OfflineBanked) and found its correlation pool empty. It is a
// retryable condition — the miss itself triggers background
// replenishment, so a caller that backs off briefly and retries the
// batch will usually find the pool warm. Test with errors.Is.
var ErrBankDry = errors.New("abnn2: correlation pool dry")

// BankSessionBackend is the BankKey.Backend of the pools plan-less
// Config.Bank sessions draw from.
const BankSessionBackend = bank.SessionBackend

// Bank is a correlation precompute service; see NewBank.
type Bank = bank.Bank

// BankOptions sizes and instruments a Bank: pool capacity, low-watermark
// refill trigger, generation parallelism, deterministic seeding, tracing
// and metrics hooks.
type BankOptions = bank.Options

// BankKey identifies one correlation pool: (model, scheme, ring width,
// batch, backend).
type BankKey = bank.Key

// BankStats is a snapshot of bank counters and pool depths.
type BankStats = bank.Stats

// NewBank returns an empty correlation bank. For loopback provisioning
// register the served models with RegisterBankModel, hand the bank to
// both endpoints via Config.Bank, and optionally Prewarm the pools you
// expect traffic on; pools touched cold warm themselves in the
// background.
func NewBank(opts BankOptions) *Bank { return bank.New(opts) }

// RegisterBankModel makes a model's correlation pools available and
// returns the model ID that clients set as Config.BankModel. The ID is a
// digest of the (public) quantized model description, so any party can
// derive it independently; the server derives its own from the model it
// serves.
func RegisterBankModel(b *Bank, q *QuantizedModel) (string, error) {
	return b.RegisterModel(q.qm)
}

// BankModelID computes the bank identity of a model without registering
// it anywhere.
func BankModelID(q *QuantizedModel) (string, error) {
	return bank.ModelID(q.qm)
}

// BankStore is the bank's durable on-disk pool store: append-only
// CRC-checksummed segment files per pool plus a claim journal with
// claim-before-use tombstoning, so single-use survives SIGKILL. Open
// one, Recover it, and pass it as BankOptions.Store; see DESIGN.md
// "Correlation bank".
type BankStore = bank.Store

// BankStoreOptions configures OpenBankStore: directory, segment rotation
// size, observer.
type BankStoreOptions = bank.StoreOptions

// BankRecoverStats summarizes a store's startup recovery scan.
type BankRecoverStats = bank.RecoverStats

// BankPeerID is a party's durable 128-bit identity, minted at first
// store open. Peer-paired correlations are keyed by the peer's ID.
type BankPeerID = bank.PeerID

// OpenBankStore creates or attaches to a durable pool store. Call
// Recover on it (directly, or via serve.Runtime.StartRecovery) before
// serving from it.
func OpenBankStore(opts BankStoreOptions) (*BankStore, error) { return bank.OpenStore(opts) }

// ParseBankPeerID parses the 32-hex-digit form of a peer ID, e.g. the
// one the serve handshake carries.
func ParseBankPeerID(s string) (BankPeerID, error) { return bank.ParsePeerID(s) }

// BankReplenisher keeps peer-paired pools above their low watermark by
// prefetching in the background, with jittered exponential backoff on
// transient failures; see NewBankReplenisher.
type BankReplenisher = bank.Replenisher

// BankReplenishOptions configures a BankReplenisher. Its Run callback
// typically opens an offline-class session (serve.DialOffline, Dial) and
// calls Client.Prefetch.
type BankReplenishOptions = bank.ReplenishOptions

// NewBankReplenisher validates options and returns a stopped
// replenisher; Start it and Close it on shutdown.
func NewBankReplenisher(opts BankReplenishOptions) (*BankReplenisher, error) {
	return bank.NewReplenisher(opts)
}

// OfflineMode selects how a session provisions its offline phase; see
// Config.OfflineMode.
type OfflineMode int

const (
	// OfflineAuto draws from Config.Bank when a correlation is available
	// and falls back to inline offline generation when the pool is dry or
	// no bank is configured. The default.
	OfflineAuto OfflineMode = iota
	// OfflineInline always runs the offline phase inline, ignoring any
	// configured bank.
	OfflineInline
	// OfflineBanked requires the bank: a dry pool (client) or an inline
	// announcement (server) fails the batch immediately instead of
	// falling back. Use it to keep latency-critical serving off the
	// offline path, and in tests that must not silently degrade.
	OfflineBanked
)

func (m OfflineMode) String() string {
	switch m {
	case OfflineAuto:
		return "auto"
	case OfflineInline:
		return "inline"
	case OfflineBanked:
		return "banked"
	}
	return "invalid"
}

// ParseOfflineMode is the inverse of OfflineMode.String, for flag values.
func ParseOfflineMode(s string) (OfflineMode, error) {
	for m := OfflineAuto; m <= OfflineBanked; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("abnn2: unknown offline mode %q (want auto, inline or banked)", s)
}
