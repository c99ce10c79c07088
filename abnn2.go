// Package abnn2 is a Go implementation of ABNN2 (Shen et al., DAC 2022):
// secure two-party prediction over arbitrary-bitwidth quantized neural
// networks. A server holding a quantized model and a client holding an
// input jointly compute the model's prediction; the server learns nothing
// about the input, the client nothing about the weights beyond the
// (public) architecture.
//
// The package is a facade over the building blocks in internal/: train or
// load a float model, quantize it under a fragmentation scheme such as
// "8(2,2,2,2)", "ternary" or "binary", and run secure inference over any
// connection:
//
//	model := abnn2.NewMLP(784, 128, 128, 10)
//	model.Train(images, labels, abnn2.TrainOptions{Epochs: 5})
//	qm, _ := model.Quantize("8(2,2,2,2)", 8)
//
//	serverConn, clientConn := abnn2.Pipe()
//	go abnn2.Serve(serverConn, qm, abnn2.Config{})          // model owner
//	client, _ := abnn2.Dial(clientConn, qm.Arch(), abnn2.Config{})
//	classes, _ := client.Classify(images[:1])               // data owner
//
// The offline/online split, the 1-out-of-N OT matrix multiplication, the
// multi-batch and one-batch optimisations, and both ReLU protocols follow
// the paper; see DESIGN.md for the experiment map.
package abnn2

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"abnn2/internal/bank"
	"abnn2/internal/core"
	"abnn2/internal/paillier"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/trace"
	"abnn2/internal/transport"
)

// Conn is a two-party message channel. Obtain one from Pipe (in-process)
// or Stream (TCP or any byte stream). Release hands a received message
// back for a later frame to reuse; a Conn of the caller's own may
// implement it as a no-op.
type Conn = transport.Conn

// Pipe returns an in-process connection pair (server end, client end).
func Pipe() (Conn, Conn) { return transport.Pipe() }

// Stream frames messages over a byte stream such as a *net.TCPConn.
func Stream(rw io.ReadWriteCloser) Conn { return transport.NewStream(rw) }

// StreamLimit is Stream with an explicit per-message frame limit,
// enforced symmetrically on send and receive (before allocation). Use it
// to raise the default 64 MiB bound for very large batches, or to lower
// it for memory-constrained deployments. Both parties must configure the
// same limit.
func StreamLimit(rw io.ReadWriteCloser, limit int) Conn {
	return transport.NewStreamLimit(rw, limit)
}

// Config selects protocol parameters. The zero value means: 32-bit ring,
// fully oblivious GC ReLU.
type Config struct {
	// RingBits is l of the share ring Z_2^l (8..64). Default
	// DefaultRingBits.
	RingBits uint
	// OptimizedReLU selects the paper's section 4.2 sign-bit ReLU, which
	// is ~3x cheaper in garbled tables but reveals each activation's sign
	// to both parties. Off by default.
	OptimizedReLU bool
	// Seed, when non-zero, makes this endpoint's randomness deterministic
	// — for the client and the server role alike. With both parties
	// seeded the entire wire transcript is byte-reproducible, which the
	// conformance harness uses for golden-transcript regression tests
	// (testing/benchmarks only — never set in production).
	Seed uint64
	// Workers bounds the compute parallelism of the protocol kernels (OT
	// extension, garbling, triplet accumulation, matmul) on this party.
	// 0 means one worker per CPU. Purely local: the two parties may use
	// different values, and every value — combined with the same Seed —
	// yields byte-identical transcripts.
	Workers int
	// RoundTimeout bounds every blocking protocol round (one framed send
	// or receive): a peer that stalls longer fails the session with a
	// timeout error instead of wedging it forever. It does not bound a
	// server's idle wait between batches. 0 means no per-round deadline.
	// Purely local; the parties may configure different values.
	RoundTimeout time.Duration
	// Trace, when non-nil, receives one TraceSpan per protocol phase
	// (setup, offline, per-layer matmul/ReLU/pool, ...) as it completes,
	// with duration and communication deltas attached. Purely local
	// telemetry: the peer never observes it, and nil adds zero overhead
	// to the protocol hot path. See NewTraceCollector and NewTraceWriter
	// for ready-made sinks.
	Trace TraceSink
	// SessionID tags every span this endpoint emits, correlating traces
	// with logs and metrics when one process runs many sessions. Purely
	// local; 0 is a valid ID.
	SessionID uint64
	// Bank, when non-nil, provisions batches from precomputed correlation
	// pools instead of running the offline phase on the request path: the
	// client draws its half and announces the correlation ID, the server
	// claims the paired half. Without BankPeer the pool is the loopback
	// one, filled inside this process, and both endpoints of the session
	// must share the same *Bank instance (an in-process trusted dealer;
	// see NewBank). Behaviour on a dry pool is set by OfflineMode.
	Bank *Bank
	// OfflineMode selects what a dry pool does; the zero value OfflineAuto
	// falls back inline. Without a Bank every batch runs inline, and
	// OfflineBanked fails validation.
	OfflineMode OfflineMode
	// BankModel is the model ID (from RegisterBankModel / BankModelID)
	// the client keys its pool draws with. Client-side only: the server
	// derives the ID from the model it serves. Required when Bank is set
	// on a client.
	BankModel string
	// BankPeer, on a client, is the serving peer's durable identity (the
	// Peer of the serve handshake). When set — which requires a Bank
	// carrying a durable store — batches draw from the pool this party
	// filled with that server (Client.Prefetch) and from no other,
	// announcing correlations with this party's own peer ID so the server
	// can claim the matching stored half; the loopback pools of Bank are
	// not consulted. The zero ID selects the loopback pools. With a Plan
	// the pool is the one prefetched under that plan.
	BankPeer BankPeerID
	// Plan, when non-nil, fixes the per-layer offline backend schedule.
	// On a client it is proposed to the server in every batch
	// announcement (one extra public flight) and executed by both
	// parties; banked draws are keyed by the plan's fingerprint so
	// pooled correlations always match the schedule. On a server it is a
	// requirement: announced plans must be the same schedule, however
	// spelled (their canonical text forms are compared), and plan-less
	// batches are rejected. A server without a Plan accepts any announced
	// plan the model can execute. Plans never change prediction bits —
	// only where offline cost is spent.
	Plan Plan
	// MiniONNKeyBits sets the size of the Paillier key the client
	// generates for planned MiniONN layers (0 = the baseline default,
	// 1024). Client-local: the server never reads the field — it takes
	// the size off the key it receives and refuses one outside the same
	// [256,4096] range.
	MiniONNKeyBits int
}

// DefaultRingBits is l of the share ring of a Config whose RingBits is 0.
const DefaultRingBits = 32

func (c Config) ringBits() uint {
	if c.RingBits == 0 {
		return DefaultRingBits
	}
	return c.RingBits
}

// Validate rejects configurations the lower layers would panic on. Every
// session constructor calls it; a process that builds sessions from one
// template (internal/serve) calls it once at start-up instead of failing
// every connection.
func (c Config) Validate() error {
	if b := c.ringBits(); b < 8 || b > 64 {
		return fmt.Errorf("abnn2: RingBits %d out of range [8,64]", b)
	}
	if c.Workers < 0 {
		return fmt.Errorf("abnn2: negative Workers %d", c.Workers)
	}
	if c.RoundTimeout < 0 {
		return fmt.Errorf("abnn2: negative RoundTimeout %v", c.RoundTimeout)
	}
	if c.OfflineMode < OfflineAuto || c.OfflineMode > OfflineBanked {
		return fmt.Errorf("abnn2: invalid OfflineMode %d", int(c.OfflineMode))
	}
	if c.OfflineMode == OfflineBanked && c.Bank == nil {
		return fmt.Errorf("abnn2: OfflineBanked requires Config.Bank")
	}
	if c.BankPeer != bank.NoPeer && c.Bank == nil {
		return fmt.Errorf("abnn2: Config.BankPeer requires Config.Bank")
	}
	if c.MiniONNKeyBits != 0 && (c.MiniONNKeyBits < paillier.MinModulusBits || c.MiniONNKeyBits > paillier.MaxModulusBits) {
		return fmt.Errorf("abnn2: MiniONNKeyBits %d outside [%d,%d]", c.MiniONNKeyBits, paillier.MinModulusBits, paillier.MaxModulusBits)
	}
	return nil
}

func (c Config) variant() core.ReLUVariant {
	if c.OptimizedReLU {
		return core.ReLUOptimized
	}
	return core.ReLUGC
}

func (c Config) rng() *prg.PRG {
	if c.Seed != 0 {
		return prg.New(prg.SeedFromInt(c.Seed))
	}
	return prg.New(prg.NewSeed())
}

// Arch is the public network architecture shared by both parties.
type Arch = core.Arch

// Serve runs the server side of secure inference until conn closes:
// setup, then one offline+online round per client batch request. It
// returns the session's traffic totals and a nil error when the client
// closes the connection cleanly.
func Serve(conn Conn, model *QuantizedModel, cfg Config) (Stats, error) {
	return ServeContext(context.Background(), conn, model, cfg)
}

// ServeContext is Serve with lifecycle control: cancelling ctx aborts the
// session even mid-round (a blocked send or receive is interrupted) and
// ServeContext returns an error wrapping ctx's error. Combined with
// Config.RoundTimeout this makes a session safe to run against an
// untrusted client: it can fail, but it cannot hang, leak its goroutine,
// or take the process down (peer-provoked panics surface as *PanicError).
//
// The returned Stats cover everything this endpoint sent and received
// over the session's lifetime, including the failed remainder of an
// aborted session. ServeContext closes conn when it returns, failed
// set-up included, so a client blocked on a failed session sees the
// connection close instead of waiting for a reply that never comes.
func ServeContext(ctx context.Context, conn Conn, model *QuantizedModel, cfg Config) (Stats, error) {
	srv, err := newServer(ctx, conn, model, cfg)
	if err != nil {
		conn.Close()
		return Stats{}, err
	}
	defer srv.Close()
	for {
		err := srv.HandleBatch()
		if errors.Is(err, io.EOF) {
			return srv.Stats(), nil // client hung up cleanly between batches
		}
		if err != nil {
			return srv.Stats(), err
		}
	}
}

// Server is the model owner's endpoint.
type Server struct {
	session
	eng  *core.ServerEngine
	bank *Bank
	mode OfflineMode
	key  BankKey // pool key template; Batch filled per announcement

	required core.Schedule // Config.Plan; nil = accept any valid plan
	sched    core.Schedule // the schedule installed on the engine; nil = none
}

// NewServer performs the cryptographic setup (base OTs) for the server
// role.
func NewServer(conn Conn, model *QuantizedModel, cfg Config) (*Server, error) {
	return newServer(context.Background(), conn, model, cfg)
}

func newServer(ctx context.Context, conn Conn, model *QuantizedModel, cfg Config) (_ *Server, err error) {
	scheme := model.qm.Layers[0].Scheme
	s, eng, err := openSession(ctx, conn, cfg, "server", scheme,
		func(sc *sessionConn, p core.Params) (*core.ServerEngine, error) {
			return core.NewServerEngineSeeded(sc, model.qm, p, cfg.variant(), cfg.rng())
		})
	if err != nil {
		return nil, err
	}
	defer s.releaseOn(&err)
	// Pre-check the required plan against this model so a misconfigured
	// server fails at setup, not per batch.
	if err := cfg.Plan.Validate(eng.Arch(), nil); err != nil {
		return nil, err
	}
	srv := &Server{session: s, eng: eng, bank: cfg.Bank, mode: cfg.OfflineMode, required: cfg.Plan}
	if cfg.Bank != nil {
		// The server keys its claims by its own model's identity; a client
		// announcing IDs from another model's pool is a claim miss.
		id, err := bank.ModelID(model.qm)
		if err != nil {
			return nil, err
		}
		srv.key = BankKey{Model: id, Scheme: scheme.Name(), RingBits: cfg.ringBits(), Backend: bank.SessionBackend}
	}
	return srv, nil
}

// tracer builds this endpoint's span recorder; nil when tracing is off,
// which disables every Start call with zero overhead.
func (c Config) tracer(sc *sessionConn, party string) *trace.Tracer {
	if c.Trace == nil {
		return nil
	}
	return trace.New(c.Trace,
		trace.WithParty(party),
		trace.WithSession(c.SessionID),
		trace.WithCounters(sc.Stats))
}

// flightFunc builds this endpoint's wire-flight stamper, nil unless the
// configured trace sink also consumes flight events. Stamps are derived
// from monotonic readings against the session epoch, so a wall-clock
// step mid-session cannot reorder them; timeline reconciliation only
// needs stamps to be internally consistent per endpoint.
func (c Config) flightFunc(party string) transport.FlightFunc {
	fs, ok := c.Trace.(trace.FlightSink)
	if !ok {
		return nil
	}
	epoch := time.Now()
	session := c.SessionID
	return func(dir string, seq int64, n int, at time.Time) {
		mono := at.Sub(epoch) // monotonic difference, immune to clock steps
		fs.EmitFlight(trace.Flight{
			Party:   party,
			Session: session,
			Dir:     dir,
			Seq:     seq,
			Bytes:   int64(n),
			Wall:    epoch.Add(mono),
		})
	}
}

// Close releases the server endpoint: it stops the session's
// cancellation watcher and closes the connection. Safe to call more than
// once.
func (s *Server) Close() error { return s.sc.Close() }

// Stats returns the traffic totals of this endpoint so far: BytesAB is
// what the server sent, BytesBA what it received. Metering is always on;
// it does not require tracing. Bytes and Messages are exact; Flights is
// not repeatable run to run, because the server sends ahead of the
// client in the offline phase and its direction flips depend on when the
// replies land. Client.Stats().Flights is the deterministic count.
func (s *Server) Stats() Stats { return s.sc.Stats() }

// HandleBatch serves one batch: it receives the client's batch
// announcement (size + mode), then either runs the offline phase and the
// online phase of a prediction or, for an announcement that says "store",
// generates the batch's offline material and stores it (see store). The
// announcement wait is idle time (no round deadline); everything after it
// is deadline-bounded when RoundTimeout is set.
//
// A client that hangs up between batches is a clean shutdown, reported
// as io.EOF; a connection lost mid-batch is a protocol failure and
// surfaces as a non-EOF error.
func (s *Server) HandleBatch() error {
	// The idle span covers the between-batches wait (including the batch
	// announcement bytes), so root spans partition the session's traffic:
	// every byte falls in exactly one of setup, idle, batch, or
	// offline-replenish.
	isp := s.tr.Start("idle")
	raw, err := s.sc.recvIdle()
	if err != nil {
		if errors.Is(err, transport.ErrClosed) || errors.Is(err, io.EOF) {
			isp.End(nil)
			return io.EOF
		}
		isp.End(err)
		return err
	}
	isp.End(nil)
	a, err := parseAnnouncement(raw)
	bsp := s.tr.Start(a.rootSpan())
	if err == nil {
		bsp.SetBatch(a.batch)
		err = guard("handle batch", func() error { return s.serveBatch(a) })
	}
	bsp.End(err)
	return err
}

// serveBatch runs the batch a announces: a store batch, or a prediction
// on offline material claimed, or generated inline, as a says.
func (s *Server) serveBatch(a announcement) error {
	if err := s.applyPlan(a.plan); err != nil {
		return err
	}
	if a.store {
		return s.store(a)
	}
	var err error
	switch {
	case a.source != provisionInline:
		err = s.claim(a)
	case s.mode == OfflineBanked:
		err = fmt.Errorf("abnn2: inline batch announcement refused (server is OfflineBanked)")
	default:
		err = s.eng.Offline(a.batch)
	}
	if err != nil {
		return err
	}
	if a.argmax {
		return s.eng.OnlineArgmax()
	}
	return s.eng.Online()
}

// applyPlan consumes a batch's plan frame (when announced) and installs
// the schedule on the engine; without one it restores the all-ABNN2
// default. The frame is the plan's text form in attacker-shaped bytes: it
// is parsed by core.ParseSchedule, compared in canonical form with the
// server's configured plan (when one is required), and validated against
// the model — layer count, backend applicability, the session scheme's
// public range, then the weights themselves in the engine's SetSchedule —
// before any of it reaches the protocol. The server checks every plan
// frame it is sent, except one whose canonical form is the plan already
// installed, which passed both checks when it was; the client checks its
// own plan once, at Dial.
func (s *Server) applyPlan(planned bool) error {
	var sched core.Schedule
	if planned {
		raw, err := s.sc.Recv()
		if err != nil {
			return fmt.Errorf("abnn2: recv plan frame: %w", err)
		}
		if sched, err = core.ParseSchedule(string(raw)); err != nil {
			return fmt.Errorf("abnn2: %w", err)
		}
	}
	switch {
	case s.required != nil && sched == nil:
		return fmt.Errorf("abnn2: batch announced without a plan, but this server requires one")
	case s.required != nil && sched.String() != s.required.String():
		return fmt.Errorf("abnn2: announced plan does not match this server's configured plan")
	case sched == nil && s.sched == nil,
		sched != nil && s.sched != nil && sched.String() == s.sched.String():
		return nil
	}
	// The session scheme's public range first: the engine's check reads
	// the private weights, so a plan refused only there would tell the
	// client whether a layer's weights fit the probed range.
	if err := sched.Validate(s.eng.Arch(), nil); err != nil {
		return fmt.Errorf("abnn2: %w", err)
	}
	if err := s.eng.SetSchedule(sched); err != nil {
		return fmt.Errorf("abnn2: %w", err)
	}
	s.sched = sched
	return nil
}

// claim resolves a banked announcement: it takes this party's half of the
// announced correlation — stored under the announcing client's identity,
// the loopback client's for a 13-byte announcement; on disk its file is
// unlinked and the unlink fsynced before the half is returned, so the id
// can never back two batches even across a crash — and installs it. Any
// failure — no bank, unknown or spent id, a half from another pool or
// peer — is a protocol error that fails the batch at once; the session
// never blocks waiting for material.
func (s *Server) claim(a announcement) (err error) {
	ksp := s.tr.Start(a.source.span()).SetBatch(a.batch)
	defer func() { ksp.End(err) }()
	if s.bank == nil {
		return fmt.Errorf("abnn2: client announced a banked batch but this server provisions inline")
	}
	key := s.claimKey(a.batch)
	corr, ok := s.bank.Claim(a.peer, a.corr, key)
	if !ok {
		return fmt.Errorf("abnn2: unknown or spent correlation ID for pool %v", key)
	}
	return s.eng.InstallCorr(corr)
}

// claimKey is the pool key of the current batch: the session pool, or
// the plan-fingerprinted pool when a schedule is active — banked
// correlations must have been generated under the very schedule the
// batch runs.
func (s *Server) claimKey(batch int) BankKey {
	key := s.key
	key.Batch = batch
	if s.sched != nil {
		key.Backend = bank.PlanBackend(s.sched)
	}
	return key
}

// store serves a batch announced with the store bit: the offline phase
// run early. Both parties generate the batch's correlation under the
// session's own generators and schedule, install nothing, and each keeps
// its half under the announced id in the pool it shares with the other —
// the one a later peer-banked announcement of that id claims from.
//
// The server answers twice, echoing the id: go or nak before generating,
// so a request it will not keep (no recovered durable store, this peer's
// pool at Capacity) costs the client one round trip and no offline phase;
// then, after a go, ack once its half's file is written, fsynced and
// renamed into its pool, or nak when it could not be put there. It
// persists before acking: a client that crashes between the ack and its
// own persist strands one server half, which is never claimable and
// costs its file and one unit of that peer's pool capacity.
func (s *Server) store(a announcement) error {
	reply := func(kind byte) error {
		return s.sc.Send(offlineFrame{kind: kind, id: a.corr}.append(nil))
	}
	key := s.claimKey(a.batch)
	if s.bank == nil || s.bank.Store() == nil || !s.bank.Store().Recovered() ||
		s.bank.Depth(a.peer, key) >= s.bank.Capacity() {
		return reply(offlineNak)
	}
	if err := reply(offlineGo); err != nil {
		return err
	}
	corr, err := s.eng.OfflineCorr(a.batch)
	if err != nil {
		return err // the two sides are mid-protocol; there is no resync point
	}
	if err := s.bank.Put(a.peer, key, a.corr, bank.EncodeServerCorr(corr)); err != nil {
		return reply(offlineNak)
	}
	return reply(offlineAck)
}

// Client is the data owner's endpoint.
type Client struct {
	session
	eng  *core.ClientEngine
	arch Arch
	rg   ring.Ring
	frac uint
	bank *Bank
	mode OfflineMode
	key  BankKey // pool key template; Batch filled per request

	source   provisioning // how batches are provisioned, fixed at Dial
	peer     bank.PeerID  // the server's identity: the one pool batches draw from
	selfPeer bank.PeerID  // this party's identity, announced to the server

	plan Plan // the proposed per-layer backend schedule, nil = all-ABNN2
}

// Dial performs the cryptographic setup for the client role. arch must
// match the server's model (it is public information, including the
// quantization scheme name).
func Dial(conn Conn, arch Arch, cfg Config) (*Client, error) {
	return DialContext(context.Background(), conn, arch, cfg)
}

// DialContext is Dial with lifecycle control: ctx governs the whole
// client session, not just setup. Cancelling it aborts any in-flight
// protocol round; subsequent calls fail immediately. Callers should
// Close the client when done so the cancellation watcher is released.
//
// Where batches get their offline material is decided here, once: with
// Config.Bank set, the pool shared with Config.BankPeer — the loopback
// peer when that is empty — and without it the inline offline phase. A
// batch that finds its one pool dry falls back inline (OfflineAuto) or
// fails (OfflineBanked); it never tries a second pool.
func DialContext(ctx context.Context, conn Conn, arch Arch, cfg Config) (_ *Client, err error) {
	source := provisionInline
	peer, selfPeer := bank.LoopbackServer, bank.LoopbackClient
	if cfg.Bank != nil {
		if cfg.BankModel == "" {
			return nil, fmt.Errorf("abnn2: Config.Bank on a client requires Config.BankModel")
		}
		source = provisionLoopback
		if cfg.BankPeer != bank.NoPeer {
			if cfg.Bank.Store() == nil {
				return nil, fmt.Errorf("abnn2: Config.BankPeer requires a bank with a durable store")
			}
			source, peer, selfPeer = provisionPeer, cfg.BankPeer, cfg.Bank.Store().PeerID()
		}
	}
	scheme, err := quant.Parse(arch.SchemeName)
	if err != nil {
		return nil, fmt.Errorf("abnn2: architecture scheme: %w", err)
	}
	s, eng, err := openSession(ctx, conn, cfg, "client", scheme,
		func(sc *sessionConn, p core.Params) (*core.ClientEngine, error) {
			return core.NewClientEngine(sc, arch, p, cfg.variant(), cfg.rng())
		})
	if err != nil {
		return nil, err
	}
	defer s.releaseOn(&err)
	cl := &Client{session: s, eng: eng, arch: arch, rg: ring.New(cfg.ringBits()), frac: arch.Frac,
		bank: cfg.Bank, mode: cfg.OfflineMode, source: source, peer: peer, selfPeer: selfPeer, plan: cfg.Plan}
	if err := eng.SetSchedule(cfg.Plan); err != nil {
		return nil, fmt.Errorf("abnn2: %w", err)
	}
	if source != provisionInline {
		backend := bank.SessionBackend
		if cfg.Plan != nil {
			// Banked draws for a planned session come from pools keyed —
			// and generated — under this exact schedule.
			backend = bank.PlanBackend(cfg.Plan)
			if err := cfg.Bank.RegisterSchedule(cfg.Plan, cfg.MiniONNKeyBits); err != nil {
				return nil, err
			}
		}
		cl.key = BankKey{Model: cfg.BankModel, Scheme: arch.SchemeName,
			RingBits: cfg.ringBits(), Backend: backend}
	}
	return cl, nil
}

// Close releases the client endpoint: it stops the session's
// cancellation watcher and closes the connection. Safe to call more than
// once.
func (c *Client) Close() error { return c.sc.Close() }

// Stats returns the traffic totals of this endpoint so far: BytesAB is
// what the client sent, BytesBA what it received. Metering is always on;
// it does not require tracing.
func (c *Client) Stats() Stats { return c.sc.Stats() }

// PoolKey is the key of the pool this client's batches of the given size
// draw from and Prefetch fills: model, scheme, ring width and backend as
// DialContext derived them from Config. It is the zero key with Batch set
// for a client without Config.Bank.
func (c *Client) PoolKey(batch int) BankKey {
	key := c.key
	key.Batch = batch
	return key
}

// Classify securely evaluates the model on a batch of float inputs and
// returns the predicted class indices (computed locally from the full
// score vector; see ClassifyPrivate to reveal only the class).
func (c *Client) Classify(inputs [][]float64) ([]int, error) {
	out, err := c.Infer(inputs)
	if err != nil {
		return nil, err
	}
	classes := make([]int, len(inputs))
	for k := range inputs {
		best, bestV := 0, c.rg.Signed(out.At(0, k))
		for i := 1; i < out.Rows; i++ {
			if v := c.rg.Signed(out.At(i, k)); v > bestV {
				best, bestV = i, v
			}
		}
		classes[k] = best
	}
	return classes, nil
}

// ClassifyPrivate is Classify with a garbled-circuit argmax finish: the
// client learns only the winning class per input — not the scores — and
// the server still learns nothing. Costs one extra GC round.
func (c *Client) ClassifyPrivate(inputs [][]float64) ([]int, error) {
	bsp := c.tr.Start("batch").SetBatch(len(inputs))
	v, err := guardVal("private classification", func() ([]int, error) {
		X, err := c.encodeBatch(inputs)
		if err != nil {
			return nil, err
		}
		if err := c.provision(len(inputs), true); err != nil {
			return nil, err
		}
		return c.eng.PredictArgmax(X)
	})
	bsp.End(err)
	return v, err
}

// Infer securely evaluates the model and returns the raw ring outputs
// (one column per input). Most callers want Classify.
func (c *Client) Infer(inputs [][]float64) (*ring.Mat, error) {
	bsp := c.tr.Start("batch").SetBatch(len(inputs))
	v, err := guardVal("inference", func() (*ring.Mat, error) {
		X, err := c.encodeBatch(inputs)
		if err != nil {
			return nil, err
		}
		if err := c.provision(len(inputs), false); err != nil {
			return nil, err
		}
		return c.eng.Predict(X)
	})
	bsp.End(err)
	return v, err
}

func (c *Client) encodeBatch(inputs [][]float64) (*ring.Mat, error) {
	batch := len(inputs)
	if batch == 0 {
		return nil, fmt.Errorf("abnn2: empty batch")
	}
	in := c.arch.InputSize()
	X := ring.NewMat(in, batch)
	fp := ring.NewFixedPoint(c.rg, c.frac)
	for k, x := range inputs {
		if len(x) != in {
			return nil, fmt.Errorf("abnn2: input %d has %d features, want %d", k, len(x), in)
		}
		for i, v := range x {
			X.Set(i, k, fp.Encode(v))
		}
	}
	return X, nil
}

// provision readies one batch's offline material and announces the batch
// to the server. A banked source draws a correlation from its one pool:
// on a hit the client half is installed and the announcement carries the
// correlation id so the server claims the paired half; on a dry pool the
// batch falls back to the inline offline phase (OfflineAuto) or fails
// fast (OfflineBanked) — it never waits for the pool to fill.
func (c *Client) provision(batch int, argmax bool) error {
	a := announcement{batch: batch, argmax: argmax}
	if c.source != provisionInline {
		key := c.PoolKey(batch)
		sp := c.tr.Start(c.source.span()).SetBatch(batch)
		id, ok, err := c.draw(key)
		if err == nil && !ok && c.mode == OfflineBanked {
			err = fmt.Errorf("%w: pool %v (OfflineBanked forbids inline fallback)", ErrBankDry, key)
		}
		sp.End(err)
		if err != nil {
			return err
		}
		if ok {
			a.source, a.corr, a.peer = c.source, id, c.selfPeer
		}
	}
	if err := c.announce(a); err != nil {
		return err
	}
	if a.source == provisionInline {
		return c.eng.Offline(batch)
	}
	return nil
}

// announce sends a batch announcement, followed by the session's plan
// frame — the plan's text form — when there is one. The plan frame
// depends only on public configuration, never on inputs, so its shape
// leaks nothing (the golden-transcript suite pins this).
func (c *Client) announce(a announcement) error {
	a.plan = c.plan != nil
	if err := c.sc.Send(a.append(nil)); err != nil {
		return err
	}
	if a.plan {
		return c.sc.Send([]byte(c.plan.String()))
	}
	return nil
}

// draw takes one correlation from the session's pool and arms the engine
// with the client half; ok is false when the pool is dry.
func (c *Client) draw(key BankKey) (id uint64, ok bool, err error) {
	id, corr, ok := c.bank.Draw(c.peer, key)
	if !ok {
		return 0, false, nil
	}
	return id, true, c.eng.InstallCorr(corr)
}

// Prefetch runs the offline phase ahead of need: for up to n batches of
// the given size the two parties generate the batch's correlation exactly
// as an inline batch would — same generators, same plan — and, instead of
// predicting with it, each stores its half in the pool it shares with the
// other, where a later session's batches find it (Config.BankPeer). It
// needs a client dialled with Config.BankPeer, and may be mixed freely
// with predictions on the same session. It returns how many correlations
// landed; fewer than n with a nil error means the server declined more
// (its pool for this client is at capacity, or it keeps no store), which
// costs one round trip and no offline phase.
func (c *Client) Prefetch(batch, n int) (stored int, err error) {
	if c.source != provisionPeer {
		return 0, fmt.Errorf("abnn2: Prefetch requires a client dialled with Config.BankPeer")
	}
	if batch <= 0 || batch > maxBatch {
		return 0, fmt.Errorf("abnn2: batch size %d out of range", batch)
	}
	for stored < n {
		sp := c.tr.Start("offline-replenish").SetBatch(batch)
		ok, err := guardVal("prefetch", func() (bool, error) { return c.storeBatch(batch) })
		sp.End(err)
		if err != nil || !ok {
			return stored, err
		}
		stored++
	}
	return stored, nil
}

// storeBatch is the client side of Server.store for one correlation; ok
// is false when the server answered nak.
func (c *Client) storeBatch(batch int) (ok bool, err error) {
	a := announcement{batch: batch, store: true, source: provisionPeer, corr: bank.NewCorrID(), peer: c.selfPeer}
	if err := c.announce(a); err != nil {
		return false, err
	}
	if ok, err := c.storeReply(a.corr, offlineGo); err != nil || !ok {
		return false, err
	}
	corr, err := c.eng.OfflineCorr(batch)
	if err != nil {
		return false, err
	}
	if ok, err := c.storeReply(a.corr, offlineAck); err != nil || !ok {
		return false, err // on a nak the server kept nothing: drop our half too
	}
	return true, c.bank.Put(c.peer, c.PoolKey(batch), a.corr, bank.EncodeClientCorr(corr))
}

// storeReply reads the server's next reply about correlation id: true for
// the kind the exchange is due, false for a nak.
func (c *Client) storeReply(id uint64, due byte) (bool, error) {
	raw, err := c.sc.Recv()
	if err != nil {
		return false, err
	}
	f, err := parseOfflineFrame(raw)
	if err != nil {
		return false, fmt.Errorf("abnn2: malformed store reply: %w", err)
	}
	if f.id != id {
		return false, fmt.Errorf("abnn2: store reply for id %d, want %d", f.id, id)
	}
	if f.kind != due && f.kind != offlineNak {
		return false, fmt.Errorf("abnn2: store reply %q, want %q", f.kind, due)
	}
	return f.kind == due, nil
}
