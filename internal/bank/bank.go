// Package bank implements the offline correlation bank: pools of the
// protocol's data-independent material — OT-extension flights and
// per-layer matmul triplets — generated off the request path, so a
// session's online phase is round-trips plus matmul only (the paper's
// offline/online split, Tables 3-5, made operational).
//
// A correlation is two halves, one per party, generated together by the
// two-party offline protocol and named by a correlation id. There is one
// pool kind: a FIFO of halves keyed by the peer they were generated with
// and by (model identity, quantization scheme η, ring width ℓ, batch
// size, backend). A client session Draws the oldest client half of the
// pool it shares with its server and announces the id in-band; the server
// session Claims the server half stored under that id and the announcing
// client's identity. Either operation spends the half: it is removed
// (on disk, its file unlinked first) before it is returned, so no
// correlation can back two online phases.
//
// Halves reach a pool in two ways. Put stores this party's half of a
// correlation it generated with a remote peer over the wire (a batch whose
// announcement says "store": Client.Prefetch and Server.store in the root
// package's abnn2.go); those pools live in the Store's pool directories and
// survive restarts. Prewarm, the only filler of a loopback pool, is the
// same arrangement with both parties in this process, on its caller's
// goroutine: a generator pair runs the genuine offline protocol over an
// internal pipe and stores the client halves under LoopbackServer and the
// server halves under LoopbackClient, in memory only.
//
// Security model: the loopback peer is an in-process trusted dealer — the
// process that hosts both generator endpoints sees both halves. That
// models the standard SPDZ-style preprocessing functionality and is sound
// only when both parties of the online session share this process's trust
// domain (one process, or an operator running a load harness against its
// own server). Halves generated with a remote peer involve no dealer: they
// are exactly what a live offline phase produces, run early (see
// DESIGN.md, "Correlation bank").
package bank

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
)

// SessionBackend is the Key.Backend of pools generated under the default
// all-ABNN2 schedule.
const SessionBackend = "abnn2"

// PlanBackend returns the Key.Backend of pools generated under a per-layer
// protocol schedule: "plan:" and the schedule's fingerprint
// (core.Schedule.Fingerprint), so a pool only ever serves sessions running
// that exact schedule, however its plan was spelled.
func PlanBackend(sched core.Schedule) string { return "plan:" + sched.Fingerprint() }

// Key identifies the correlations of one pool. Model is the digest
// returned by RegisterModel; Scheme is the quantization scheme designation
// (η); RingBits is ℓ; Batch the online batch size the correlations are
// sized for.
type Key struct {
	Model    string
	Scheme   string
	RingBits uint
	Batch    int
	Backend  string
}

// String renders the key for labels and log lines, with the model digest
// truncated for readability.
func (k Key) String() string {
	model := k.Model
	if len(model) > 12 {
		model = model[:12]
	}
	return fmt.Sprintf("%s/%s/l%d/b%d/%s", model, k.Scheme, k.RingBits, k.Batch, k.Backend)
}

// Event is one bank occurrence delivered to an Observer. Draws and claims
// report "hit", "miss", "claim" and "claim-miss" on a loopback pool and
// the same kinds prefixed "peer-" on a remote peer's; the loopback filler
// adds "refill" (one pair Prewarm generated) and "evict", and the store its
// "persist-*" kinds. Depth is the pool depth after the event where
// meaningful. A "persist-claim" names the claimed half: its pool's scope
// digest and its correlation id.
type Event struct {
	Kind  string
	Key   Key
	Depth int
	Err   error
	Pool  string
	ID    uint64
}

// Observer receives bank events; see NewMetricsObserver for the standard
// metrics bridge. Calls may come from any goroutine and must not block.
type Observer interface {
	BankEvent(Event)
}

// Options sizes and instruments a Bank.
type Options struct {
	// Capacity bounds each pool's depth. Default 8.
	Capacity int
	// Deprecated: ignored. Loopback pools fill only in Prewarm; the
	// field stays for callers that still set it.
	Low int
	// Workers bounds generation compute parallelism (the internal/par
	// pool), like core.Params.Workers. 0 means one worker per CPU.
	Workers int
	// Seed, when non-zero, makes all generated correlations
	// deterministic: each pool derives an independent child stream keyed
	// by its Key, so the sequence drawn from one pool is independent of
	// interleaving with other pools. Testing only.
	Seed uint64
	// Observer, when non-nil, receives pool hit/miss/refill/depth events;
	// see NewMetricsObserver.
	Observer Observer
	// Store, when non-nil, holds the bank's pools: halves generated with
	// a remote peer live there durably and claim-before-use, which Put
	// requires; loopback pools are memory-only in it. Nil gives the bank
	// a memory-only store of its own. A remote peer's pools are
	// unavailable until the store has completed Recover.
	Store *Store
}

func (o Options) capacity() int {
	if o.Capacity <= 0 {
		return 8
	}
	return o.Capacity
}

// maxClaims bounds, per loopback pool, the server halves whose client
// half was drawn and whose id was never claimed (the client died before
// announcing): they must not hold memory forever, so past this bound the
// oldest are evicted FIFO.
const maxClaims = 1024

// bankSession is the OT session tag of the bank's internal generator
// pairs, distinct from the live session tags in internal/core.
const bankSession = 0xBA

// Stats is a snapshot of bank counters — draws on every pool, Prewarm's
// fills of the loopback ones — and the loopback pools' depths.
type Stats struct {
	Hits, Misses int64
	Refills      int64
	Depths       map[Key]int
}

// Bank is the correlation bank. All methods are safe for concurrent use.
type Bank struct {
	opts   Options
	store  *Store // opts.Store, or a memory-only one
	ctx    context.Context
	cancel context.CancelFunc
	rng    *prg.PRG // root stream; pool children derived under mu

	mu     sync.Mutex
	models map[string]*nn.QuantizedModel
	scheds map[string]schedEntry
	pools  map[Key]*pool // the loopback pools' fillers
	closed bool

	nextID atomic.Uint64 // loopback correlation ids are sequential

	hits, misses, refills atomic.Int64
}

// New returns an empty bank. Register models, then Prewarm the loopback
// pools sessions will draw from: nothing else fills them.
func New(opts Options) *Bank {
	ctx, cancel := context.WithCancel(context.Background())
	var rng *prg.PRG
	if opts.Seed != 0 {
		rng = prg.New(prg.SeedFromInt(opts.Seed))
	} else {
		rng = prg.New(prg.NewSeed())
	}
	store := opts.Store
	if store == nil {
		store = newMemStore()
	}
	return &Bank{
		opts:   opts,
		store:  store,
		ctx:    ctx,
		cancel: cancel,
		rng:    rng,
		models: make(map[string]*nn.QuantizedModel),
		scheds: make(map[string]schedEntry),
		pools:  make(map[Key]*pool),
	}
}

// schedEntry is one registered per-layer protocol schedule, keyed by the
// Key.Backend of its pools (PlanBackend).
type schedEntry struct {
	sched       core.Schedule
	miniONNBits int
}

// RegisterSchedule makes planned loopback pools (Key.Backend =
// PlanBackend(sched)) generable: their offline phase runs under sched
// instead of all-ABNN2. miniONNBits sets the Paillier key size for
// MiniONN layers (0 = default). Idempotent for identical registrations.
func (b *Bank) RegisterSchedule(sched core.Schedule, miniONNBits int) error {
	if sched == nil {
		return fmt.Errorf("bank: schedule registration needs a schedule")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("bank: closed")
	}
	b.scheds[PlanBackend(sched)] = schedEntry{sched: sched, miniONNBits: miniONNBits}
	return nil
}

// ModelID returns the bank identity of a quantized model: a digest of its
// canonical serialization, so both parties derive the same pool key from
// the same public model description.
func ModelID(qm *nn.QuantizedModel) (string, error) {
	data, err := nn.MarshalQuantized(qm)
	if err != nil {
		return "", fmt.Errorf("bank: model identity: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// RegisterModel makes a model's loopback pools generable and returns the
// model ID clients put in their pool keys. Pools themselves are created
// per (ring, batch) by Prewarm. Idempotent.
func (b *Bank) RegisterModel(qm *nn.QuantizedModel) (string, error) {
	id, err := ModelID(qm)
	if err != nil {
		return "", err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return "", fmt.Errorf("bank: closed")
	}
	b.models[id] = qm
	return id, nil
}

// newPoolLocked builds a pool shell; b.mu must be held (the pool's rng is
// derived from the bank root stream).
func (b *Bank) newPoolLocked(key Key) *pool {
	return &pool{key: key, rng: b.rng.Child("pool/" + key.String())}
}

// lookup returns the loopback pool's filler for key, creating it on first
// touch when the key is well-formed and its model is registered; nil
// otherwise.
func (b *Bank) lookup(key Key) *pool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	if p, ok := b.pools[key]; ok {
		return p
	}
	var sched core.Schedule
	var mbits int
	if key.Backend != SessionBackend {
		e, ok := b.scheds[key.Backend]
		if !ok {
			return nil
		}
		sched, mbits = e.sched, e.miniONNBits
	}
	qm, ok := b.models[key.Model]
	if !ok {
		return nil
	}
	params, err := sessionParams(qm, key, b.opts.Workers)
	if err != nil {
		return nil
	}
	if sched != nil && len(sched) != len(qm.Layers) {
		return nil
	}
	params.MiniONNBits = mbits
	p := b.newPoolLocked(key)
	p.model, p.params, p.sched = qm, params, sched
	b.pools[key] = p
	return p
}

// sessionParams validates a session key against its model and builds the
// generator protocol parameters.
func sessionParams(qm *nn.QuantizedModel, key Key, workers int) (core.Params, error) {
	if key.Batch <= 0 || key.Batch > 1<<20 {
		return core.Params{}, fmt.Errorf("bank: batch %d out of range", key.Batch)
	}
	if key.RingBits < 8 || key.RingBits > 64 {
		return core.Params{}, fmt.Errorf("bank: ring width %d out of range", key.RingBits)
	}
	if name := qm.Layers[0].Scheme.Name(); name != key.Scheme {
		return core.Params{}, fmt.Errorf("bank: key scheme %q does not match model scheme %q", key.Scheme, name)
	}
	scheme, err := quant.Parse(key.Scheme)
	if err != nil {
		return core.Params{}, fmt.Errorf("bank: key scheme: %w", err)
	}
	p := core.Params{Ring: ring.New(key.RingBits), Scheme: scheme, Workers: workers}
	if err := p.Validate(); err != nil {
		return core.Params{}, err
	}
	return p, nil
}

// Store returns the store the bank was given, nil for a bank that keeps
// its pools in memory only.
func (b *Bank) Store() *Store { return b.opts.Store }

// events is the Event.Kind prefix of draws and claims on peer's pools.
func (p PeerID) events() string {
	if p.loopback() {
		return ""
	}
	return "peer-"
}

// Draw takes the oldest client half of the pool shared with peer — the
// server's identity, LoopbackServer for the in-process filler — and claims
// it: on disk the half's file is unlinked before the half is returned.
// The returned id is what the client announces in-band; the server finds
// the matching half through Claim. ok is false when the pool is dry or
// unknown — callers fall back to inline offline generation or fail fast,
// never wait. A dry loopback pool stays dry until Prewarm fills it, and a
// loopback Draw creates no pool: a key Prewarm never named stays out of
// Snapshot's depths, however often it misses.
func (b *Bank) Draw(peer PeerID, key Key) (id uint64, half *core.ClientCorr, ok bool) {
	scope := Scope{Peer: peer, Key: key}
	var p *pool // the filler behind a loopback pool, nil until Prewarm
	if peer == LoopbackServer {
		b.mu.Lock()
		_, registered := b.models[key.Model]
		p = b.pools[key]
		closed := b.closed
		b.mu.Unlock()
		if closed || !registered {
			return b.miss(peer, key)
		}
	}
	for {
		id, blob, ok, err := b.store.Draw(scope)
		if err != nil {
			b.observe(Event{Kind: "persist-claim-drop", Key: key, Err: err})
		}
		if err != nil || !ok {
			break
		}
		half, err := DecodeClientCorr(blob)
		if err != nil {
			// Already claimed; just skip it and try the next record.
			b.observe(Event{Kind: "persist-decode-error", Key: key, Err: err})
			continue
		}
		if p != nil {
			b.evictParked(p)
		}
		b.hits.Add(1)
		b.observe(Event{Kind: peer.events() + "hit", Key: key, Depth: b.store.Depth(scope)})
		return id, half, true
	}
	return b.miss(peer, key)
}

func (b *Bank) miss(peer PeerID, key Key) (uint64, *core.ClientCorr, bool) {
	b.misses.Add(1)
	b.observe(Event{Kind: peer.events() + "miss", Key: key})
	return 0, nil, false
}

// evictParked enforces maxClaims on p: the pool's server halves number
// its undrawn pairs plus the parked ones, and the parked ones are the
// oldest, so evicting is drawing from the server-half scope.
func (b *Bank) evictParked(p *pool) {
	client, server := p.scopes()
	evicted := 0
	p.mu.Lock()
	for b.store.Depth(server)-b.store.Depth(client) > maxClaims {
		if _, _, ok, _ := b.store.Draw(server); !ok {
			break
		}
		evicted++
	}
	p.mu.Unlock()
	for ; evicted > 0; evicted-- {
		b.observe(Event{Kind: "evict", Key: p.key})
	}
}

// Claim takes the server half stored under the announcing client's
// identity — LoopbackClient for the in-process filler — and the announced
// correlation id. Single-use: the half is removed (on disk, its file is
// unlinked) before it is returned, so the same id can never back two
// online phases even across SIGKILL. A claim under another key or
// peer than the half was stored under misses and leaves it in place.
func (b *Bank) Claim(peer PeerID, id uint64, key Key) (half *core.ServerCorr, ok bool) {
	blob, ok, err := b.store.ClaimByID(Scope{Peer: peer, Key: key}, id)
	if err != nil {
		b.observe(Event{Kind: "persist-claim-drop", Key: key, Err: err})
	} else if ok {
		if half, err = DecodeServerCorr(blob); err == nil {
			b.observe(Event{Kind: peer.events() + "claim", Key: key})
			return half, true
		}
		b.observe(Event{Kind: "persist-decode-error", Key: key, Err: err})
	}
	b.observe(Event{Kind: peer.events() + "claim-miss", Key: key})
	return nil, false
}

// Put durably stores this party's half of a correlation generated with the
// remote party identified by peer: an EncodeClientCorr blob on a client, an
// EncodeServerCorr blob on a server (one commit of a store batch).
func (b *Bank) Put(peer PeerID, key Key, id uint64, half []byte) error {
	if b.opts.Store == nil {
		return fmt.Errorf("bank: no durable store")
	}
	if peer.loopback() {
		return fmt.Errorf("bank: peer id %s is reserved for the loopback filler", peer)
	}
	return b.store.Append(Scope{Peer: peer, Key: key}, id, half)
}

// Depth returns the number of unspent halves in the (peer, key) pool (0
// when absent): the loopback pool's under LoopbackServer, the pool
// Client.Prefetch fills under a remote peer.
func (b *Bank) Depth(peer PeerID, key Key) int {
	return b.store.Depth(Scope{Peer: peer, Key: key})
}

// Capacity returns the bank's per-pool depth bound: what the loopback
// filler fills to, and what a server enforces per peer on store batches.
func (b *Bank) Capacity() int { return b.opts.capacity() }

// Prewarm fills the loopback pool for key to depth n (clamped to
// Capacity) on the caller's goroutine: the only way a loopback pool
// fills. A Close during the fill interrupts it with an error.
func (b *Bank) Prewarm(key Key, n int) error {
	p := b.lookup(key)
	if p == nil {
		return fmt.Errorf("bank: no pool for %v (model not registered?)", key)
	}
	if cap := b.opts.capacity(); n > cap {
		n = cap
	}
	for b.Depth(LoopbackServer, key) < n {
		if err := b.fill(p); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns current counters and the loopback pools' depths.
func (b *Bank) Snapshot() Stats {
	s := Stats{
		Hits:    b.hits.Load(),
		Misses:  b.misses.Load(),
		Refills: b.refills.Load(),
		Depths:  make(map[Key]int),
	}
	b.mu.Lock()
	for key := range b.pools {
		s.Depths[key] = 0
	}
	b.mu.Unlock()
	for key := range s.Depths {
		s.Depths[key] = b.Depth(LoopbackServer, key)
	}
	return s
}

// Drain is Store.Sync: no append is left in OS buffers. The bank runs
// nothing in the background, so there is nothing to wait for.
func (b *Bank) Drain(context.Context) error { return b.store.Sync() }

// Close stops the bank: it closes the generator pipes, failing the round
// of any Prewarm in progress, and refuses later ones. Safe to call more
// than once; loopback draws report misses afterwards.
func (b *Bank) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		b.cancel() // before closeGen: a generator set up meanwhile sees it
		for _, p := range b.pools {
			p.closeGen()
		}
	}
	return nil
}

// fill generates one pair for p and stores its halves under the next
// sequential id, honouring the capacity bound. Generation per pool is
// serialized (deterministic stream consumption); distinct pools generate
// concurrently.
func (b *Bank) fill(p *pool) error {
	p.genMu.Lock()
	defer p.genMu.Unlock()
	if err := b.ctx.Err(); err != nil {
		return fmt.Errorf("bank: closed")
	}
	server, client, err := p.generate(b.ctx)
	if err != nil {
		return err
	}
	cscope, sscope := p.scopes()
	p.mu.Lock()
	if b.store.Depth(cscope) < b.opts.capacity() {
		// The server half first: a client half that can be drawn always
		// has its partner waiting for the claim.
		id := b.nextID.Add(1)
		if err = b.store.Append(sscope, id, EncodeServerCorr(server)); err == nil {
			err = b.store.Append(cscope, id, EncodeClientCorr(client))
		}
	}
	depth := b.store.Depth(cscope)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	b.refills.Add(1)
	b.observe(Event{Kind: "refill", Key: p.key, Depth: depth})
	return nil
}

func (b *Bank) observe(ev Event) {
	if b.opts.Observer != nil {
		b.opts.Observer.BankEvent(ev)
	}
}
