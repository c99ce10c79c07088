package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"abnn2"
	"abnn2/internal/trace"
)

// Options configures a Runtime.
type Options struct {
	// Registry holds the served models; must contain at least one.
	Registry *Registry
	// MaxSessions bounds concurrently admitted sessions. 0 derives a
	// default from GOMAXPROCS and Session.Workers (each session fans its
	// kernels across Workers goroutines, so capacity is compute slots
	// with 2x oversubscription for wire waits).
	MaxSessions int
	// HandshakeTimeout bounds the model handshake on a new connection:
	// hello receive and reply send. A connection that has not completed
	// it is closed — a slow-loris peer holds a socket, never a session
	// slot. Default 10s.
	HandshakeTimeout time.Duration
	// Session is the per-session configuration template: ring width,
	// ReLU variant, workers, round timeout, trace sink, bank, offline
	// mode. The handshake tells every client the ring width and ReLU
	// variant; SessionID is filled per connection by the runtime; New
	// validates the template (abnn2.Config.Validate). Session.Bank, when
	// non-nil with a durable store, lets remote clients claim the halves
	// their offline sessions left in that store; a batch whose client
	// found its pool dry runs inline or fails per Session.OfflineMode.
	Session abnn2.Config
	// Metrics, when non-nil, receives the runtime's admission and
	// session series; see NewMetrics.
	Metrics *Metrics
	// Logger receives structured serve-layer logs; nil discards them.
	Logger *slog.Logger
	// Recorder, when non-nil, is the always-on per-session flight
	// recorder: the runtime tees every session's spans and flights into
	// it (alongside Session.Trace) and serves it at
	// /debug/flightrecorder via FlightRecorderHandler. Anomaly triggers
	// dump its rings to DiagDir.
	Recorder *trace.Recorder
	// SLO is the per-session latency objective. Sessions slower than it
	// bump the abnn2_slo_* burn-rate series and — with DiagDir set —
	// trigger a flight-recorder dump. 0 disables SLO accounting.
	SLO time.Duration
	// DiagDir, when non-empty, enables anomaly-triggered diagnostics:
	// SLO breaches, session errors, and sheds dump the session's
	// recorder ring there as JSON. The directory must exist.
	DiagDir string
	// DiagProfile, when positive, additionally captures one CPU profile
	// window of that length per anomaly burst into DiagDir.
	DiagProfile time.Duration
}

// retry hints for sheds whose wait is not slot-bound: a draining server
// wants clients to find another replica soon but not hammer this one;
// a recovering store is back in roughly one offline-phase time.
const (
	drainRetryAfter   = time.Second
	bankDryRetryAfter = 250 * time.Millisecond
)

// Runtime is the resilient serving runtime: it owns admission,
// backpressure and lifecycle for every connection handed to HandleConn,
// whatever transport it arrived on.
type Runtime struct {
	reg       *Registry
	adm       *Admission
	hsTimeout time.Duration
	session   abnn2.Config
	m         *Metrics
	log       *slog.Logger
	recorder  *trace.Recorder
	slo       time.Duration
	diag      *diagnostics

	nextSession atomic.Uint64
	recovered   atomic.Bool

	mu       sync.Mutex
	nconns   int
	draining bool
	store    *abnn2.BankStore // set by StartRecovery; flushed on Drain
}

// New builds a runtime over a non-empty registry. When a bank is
// configured, each model's BankID is set here: the identity that keys the
// correlations remote clients store with this server. The runtime
// generates none itself.
func New(opts Options) (*Runtime, error) {
	if opts.Registry == nil || opts.Registry.Len() == 0 {
		return nil, fmt.Errorf("serve: registry is empty")
	}
	// The effective per-session config, minus the per-connection session
	// id: a bad template fails here, at start-up, not on every connection.
	// Its ring width is the one every handshake reply carries.
	session := opts.Session
	if err := session.Validate(); err != nil {
		return nil, fmt.Errorf("serve: Options.Session: %w", err)
	}
	if session.RingBits == 0 {
		session.RingBits = abnn2.DefaultRingBits
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	max := opts.MaxSessions
	if max <= 0 {
		max = defaultMaxSessions(opts.Session.Workers)
	}
	hs := opts.HandshakeTimeout
	if hs <= 0 {
		hs = 10 * time.Second
	}
	rt := &Runtime{
		reg:       opts.Registry,
		adm:       NewAdmission(max),
		hsTimeout: hs,
		session:   session,
		m:         opts.Metrics,
		log:       log,
		recorder:  opts.Recorder,
		slo:       opts.SLO,
	}
	if rt.recorder != nil {
		// Tee every session's spans and flights into the recorder; Multi
		// forwards flights to the members that consume them.
		rt.session.Trace = trace.Multi(rt.session.Trace, rt.recorder)
	}
	rt.diag = newDiagnostics(opts.DiagDir, rt.recorder, opts.DiagProfile, opts.Metrics, log)
	if rt.session.Bank != nil {
		for _, name := range rt.reg.Names() {
			m, _ := rt.reg.Get(name)
			id, err := abnn2.BankModelID(m.Quant)
			if err != nil {
				return nil, fmt.Errorf("serve: bank identity of %q: %w", name, err)
			}
			m.BankID = id
		}
	}
	rt.recovered.Store(true) // until StartRecovery says otherwise
	rt.m.setReady(true)
	return rt, nil
}

// defaultMaxSessions sizes admission from compute capacity: GOMAXPROCS
// divided by the per-session worker fan-out, times two — sessions
// alternate kernel bursts with wire waits, so 2x oversubscription keeps
// cores busy without thrashing.
func defaultMaxSessions(workers int) int {
	ncpu := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > ncpu {
		workers = ncpu
	}
	n := ncpu / workers * 2
	if n < 2 {
		n = 2
	}
	return n
}

// Admission exposes the runtime's admission controller (for health
// introspection and tests).
func (rt *Runtime) Admission() *Admission { return rt.adm }

// Registry returns the runtime's model registry.
func (rt *Runtime) Registry() *Registry { return rt.reg }

// StartRecovery begins background recovery of the bank's durable store,
// gating readiness: /readyz answers 503 until the recovery scan has
// completed, so peer-banked sessions never run against an unvalidated
// store. A failed recovery is logged and leaves the store disabled —
// peer-banked claims and offline sessions fail, degrading durability
// rather than startup — and the runtime still becomes ready.
func (rt *Runtime) StartRecovery(store *abnn2.BankStore) {
	rt.mu.Lock()
	rt.store = store
	rt.mu.Unlock()
	rt.recovered.Store(false)
	rt.m.setReady(false)
	rt.trackConn()
	go func() {
		defer rt.untrackConn()
		stats, err := store.Recover()
		if err != nil {
			rt.log.Error("bank store recovery failed; serving without it", "dir", store.Dir(), "err", err)
		} else {
			rt.log.Info("bank store recovered", "dir", store.Dir(),
				"scopes", stats.Scopes, "records", stats.Records, "quarantined", stats.Quarantined)
		}
		rt.recovered.Store(true)
		ready, _ := rt.ReadyState()
		rt.m.setReady(ready)
	}()
}

// ReadyState reports whether the runtime should receive traffic, with a
// human-readable reason when it should not.
func (rt *Runtime) ReadyState() (bool, string) {
	rt.mu.Lock()
	draining := rt.draining
	rt.mu.Unlock()
	switch {
	case draining:
		return false, "draining"
	case rt.reg.Len() == 0:
		return false, "no models registered"
	case !rt.recovered.Load():
		return false, "bank store recovery in progress"
	}
	return true, "ready"
}

// Drain puts the runtime into shutdown: every subsequent handshake is
// shed with a retryable draining rejection, and Drain waits for the
// connections already inside HandleConn to finish. It returns ctx's
// error if they outlive it; callers then cancel the session contexts to
// force the stragglers out.
func (rt *Runtime) Drain(ctx context.Context) error {
	rt.mu.Lock()
	rt.draining = true
	store := rt.store
	rt.mu.Unlock()
	rt.m.setReady(false)
	// In-flight diagnostics profile windows must finish before the
	// process exits, or the profile file is truncated mid-write.
	defer rt.diag.wait()
	// Sync the bank store's pool directories even when sessions outlive
	// the deadline: an abandoned drain must not leave the renames of
	// appended halves in OS buffers (every claim has synced its own).
	if store != nil {
		defer func() {
			if err := store.Sync(); err != nil {
				rt.log.Warn("bank store sync on drain failed", "err", err)
			}
		}()
	}
	for {
		rt.mu.Lock()
		n := rt.nconns
		rt.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %d connections still live: %w", n, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (rt *Runtime) trackConn() {
	rt.mu.Lock()
	rt.nconns++
	rt.mu.Unlock()
}

func (rt *Runtime) untrackConn() {
	rt.mu.Lock()
	rt.nconns--
	rt.mu.Unlock()
}

// HandleConn runs one connection through its whole lifecycle: handshake
// under deadline, admission, typed rejection or session serve, cleanup.
// It always closes conn. The returned error describes the outcome for
// callers that log or test; sheds return the *RejectError the client
// saw.
//
// The handshake deadline is armed before the first read, so a peer that
// connects and never speaks (slow loris) is dropped when it expires —
// having consumed a socket and a parked goroutine for the duration, but
// never a session slot.
func (rt *Runtime) HandleConn(ctx context.Context, conn abnn2.Conn, remote string) error {
	rt.trackConn()
	defer rt.untrackConn()
	defer conn.Close()
	rt.m.handshake()
	hsStart := time.Now()
	_ = conn.SetDeadline(hsStart.Add(rt.hsTimeout))

	raw, err := conn.Recv()
	if err != nil {
		rt.m.handshakeFail()
		rt.log.Warn("handshake read failed", "remote", remote, "err", err)
		return fmt.Errorf("serve: handshake read: %w", err)
	}
	var h hello
	if len(raw) > maxHelloBytes || json.Unmarshal(raw, &h) != nil || h.V != helloVersion {
		return rt.reject(conn, remote, Rejection{
			Code:   RejectBadHello,
			Reason: "malformed hello or unsupported version",
		})
	}
	model, ok := rt.reg.Get(h.Model)
	if !ok {
		return rt.reject(conn, remote, Rejection{
			Code:   RejectUnknownModel,
			Reason: fmt.Sprintf("model %q is not served here", h.Model),
		})
	}
	// An offline hello is checked before admission: a request this server
	// can never serve is refused without taking a slot.
	if h.Offline {
		if rej := rt.checkOffline(); rej != nil {
			return rt.reject(conn, remote, *rej)
		}
	}
	release, rej := rt.admit(h.Offline)
	if rej != nil {
		return rt.reject(conn, remote, *rej)
	}
	defer release()

	// The session id is assigned before the reply so it can ride in it:
	// the client stamps its spans and flights with the server's id,
	// which is what lets -timeline merge the two dumps.
	id := rt.nextSession.Add(1)
	hr := helloReply{OK: true, Model: model.Name, Arch: model.ArchJSON, Session: id,
		RingBits: rt.session.RingBits, OptimizedReLU: rt.session.OptimizedReLU}
	if rt.session.Bank != nil && rt.session.Bank.Store() != nil {
		hr.BankID, hr.Peer = model.BankID, rt.session.Bank.Store().PeerID().String()
	}
	reply, err := json.Marshal(hr)
	if err != nil {
		return err
	}
	if err := conn.Send(reply); err != nil {
		rt.m.handshakeFail()
		rt.log.Warn("handshake reply failed", "remote", remote, "err", err)
		return fmt.Errorf("serve: handshake reply: %w", err)
	}
	// Handshake done: hand deadline control to the session layer (which
	// arms per-round deadlines from Config.RoundTimeout).
	_ = conn.SetDeadline(time.Time{})

	cfg := rt.session
	cfg.SessionID = id
	// The hello's class selects how the session is accounted, not what
	// runs: a replenishment session stays out of the latency SLO, the
	// session-latency histogram and the timeline's queue class — how long
	// it runs is the client's choice of how much to prefetch.
	slo := rt.slo
	if h.Offline {
		slo = 0
	} else {
		rt.emitAdmission(id, hsStart)
	}
	rt.m.sessionStart(model.Name, h.Offline)
	start := time.Now()
	stats, err := abnn2.ServeContext(ctx, conn, model.Quant, cfg)
	elapsed := time.Since(start)
	rt.m.sessionEnd(err, h.Offline)
	if !h.Offline {
		rt.m.observeSession(model.Name, elapsed, slo)
	}
	if err != nil {
		rt.diag.sessionAnomaly("error", id, model.Name, remote, elapsed, slo, err)
		rt.log.Error("session failed", "session", id, "model", model.Name, "remote", remote,
			"offline", h.Offline, "err", err, "bytes_sent", stats.BytesAB, "bytes_recvd", stats.BytesBA)
		return err
	}
	if slo > 0 && elapsed > slo {
		rt.diag.sessionAnomaly("slo-breach", id, model.Name, remote, elapsed, slo, nil)
		rt.log.Warn("session breached latency SLO", "session", id, "model", model.Name,
			"remote", remote, "elapsed", elapsed.Round(time.Millisecond), "slo", slo)
	}
	rt.log.Info("session done", "session", id, "model", model.Name, "remote", remote,
		"offline", h.Offline, "bytes_sent", stats.BytesAB, "bytes_recvd", stats.BytesBA,
		"dur", elapsed.Round(time.Millisecond))
	return nil
}

// syntheticSpanBase offsets hand-built span ids (admission, dial) away
// from the per-session tracer's small sequential ids.
const syntheticSpanBase = uint64(1) << 62

// emitAdmission records the handshake+admission window as a root span on
// the session trace, so timeline reconciliation can attribute the
// pre-protocol wait to the queue class.
func (rt *Runtime) emitAdmission(id uint64, hsStart time.Time) {
	if rt.session.Trace == nil {
		return
	}
	rt.session.Trace.Emit(trace.Span{
		ID: syntheticSpanBase | id, Party: "server", Session: id,
		Name: "admission", Layer: -1,
		Start: hsStart, Dur: time.Since(hsStart),
	})
}

// checkOffline refuses an offline hello this server can never serve: one
// without a durable store has nowhere to keep the halves, and saying so
// here saves the client the session set-up it would spend to learn it
// from the first store batch's nak.
func (rt *Runtime) checkOffline() *Rejection {
	if rt.session.Bank == nil || rt.session.Bank.Store() == nil {
		return &Rejection{Code: RejectBadHello,
			Reason: "offline sessions require a server with a durable bank store"}
	}
	return nil
}

// admit decides one handshake: a session slot or a typed rejection.
// Decision order: draining beats saturation beats store state, so a
// shutting-down server answers consistently whatever its load and
// whichever kind of session the hello asked for. Offline sessions take a
// normal slot — they cost the same compute as an inline offline phase —
// and wait for the store's recovery, which they write into. An inference
// session is admitted without a look at any pool: what a remote client's
// own store holds for this server is not visible from here, so each batch
// finds out for itself.
func (rt *Runtime) admit(offline bool) (release func(), rej *Rejection) {
	rt.mu.Lock()
	draining := rt.draining
	rt.mu.Unlock()
	if draining {
		return nil, &Rejection{
			Code: RejectDraining, Retryable: true,
			RetryAfterMillis: drainRetryAfter.Milliseconds(),
			Reason:           "server is draining for shutdown",
		}
	}
	release, ok := rt.adm.TryAcquire()
	if !ok {
		return nil, &Rejection{
			Code: RejectSaturated, Retryable: true,
			RetryAfterMillis: rt.adm.RetryAfter().Milliseconds(),
			Reason:           fmt.Sprintf("all %d session slots busy", rt.adm.Max()),
		}
	}
	if offline && !rt.recovered.Load() {
		// The store refuses writes until recovery completes; shedding
		// here saves the client a doomed offline phase.
		release()
		return nil, &Rejection{
			Code: RejectBankDry, Retryable: true,
			RetryAfterMillis: bankDryRetryAfter.Milliseconds(),
			Reason:           "bank store recovery in progress",
		}
	}
	return release, nil
}

// reject sheds one connection: metrics, log, best-effort wire reply
// (still under the handshake deadline), close. The client observes the
// same *RejectError this returns.
func (rt *Runtime) reject(conn abnn2.Conn, remote string, rej Rejection) error {
	rt.m.shed(rej)
	rt.diag.shed(rej, remote)
	rt.log.Warn("shed", "remote", remote, "code", rej.Code,
		"retryable", rej.Retryable, "retry_after_ms", rej.RetryAfterMillis)
	if reply, err := json.Marshal(helloReply{OK: false, Reject: &rej}); err == nil {
		_ = conn.Send(reply)
	}
	return &RejectError{Rejection: rej}
}

// Connect opens an in-process session against the runtime: a pipe pair
// whose server end is served by HandleConn on a background goroutine,
// and whose client end completes the handshake here. The load harness
// and tests use it to drive the exact admission path TCP clients hit,
// minus the network. On rejection the returned error is the
// *RejectError, the pipe is closed, and the serving goroutine has
// already exited by way of its own close. A planned session sets
// abnn2.Config.Plan for the Dial on the returned connection: its plan
// travels in each batch's plan flight, never in the hello.
func (rt *Runtime) Connect(ctx context.Context, model string) (abnn2.Conn, abnn2.Arch, error) {
	sconn, cconn := abnn2.Pipe()
	go func() { _ = rt.HandleConn(ctx, sconn, "inproc") }()
	info, err := ClientHandshakeInfo(cconn, model)
	if err != nil {
		cconn.Close()
		return nil, info.Arch, err
	}
	return cconn, info.Arch, nil
}
