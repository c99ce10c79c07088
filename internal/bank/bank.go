// Package bank implements the offline correlation bank: a background
// precompute service that generates the protocol's data-independent
// material — OT-extension flights and per-layer matmul triplets — off the
// request path, so a session's online phase is round-trips plus matmul
// only (the paper's offline/online split, Tables 3-5, made operational).
//
// Correlations are keyed by (model identity, quantization scheme η, ring
// width ℓ, batch size, backend) and held in bounded per-key pools with
// low-watermark replenishment. A client session Acquires its half of a
// pair together with a correlation ID, announces the ID in-band, and the
// server session Claims the matching server half.
//
// Security model: the bank is an in-process trusted dealer. It produces
// each pair by running the genuine two-party offline protocol between a
// persistent generator pair over an internal pipe, so the stored halves
// are exactly what a live offline phase would have produced; the "dealer"
// is the process that hosts both generator endpoints. This models the
// standard SPDZ-style preprocessing functionality and is sound only when
// bank and parties share a trust domain (one process, or an operator
// running a load harness against its own server). Pairs are single-use by
// construction: Acquire removes the entry and Claim removes the parked
// half, so no correlation can back two online phases (see DESIGN.md,
// "Offline correlation bank").
package bank

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/trace"
)

// SessionBackend is the Key.Backend of pools that feed full inference
// sessions (paired core.ServerCorr/core.ClientCorr halves). Other backend
// names are free for custom pools registered with RegisterProducer.
const SessionBackend = "abnn2"

// planPrefix starts the Key.Backend of pools generated under a per-layer
// protocol schedule; the remainder is the plan fingerprint, so a pool
// only ever serves sessions running that exact schedule.
const planPrefix = "plan:"

// PlanBackend returns the Key.Backend of session pools generated under
// the plan with the given fingerprint (see internal/plan.Fingerprint).
func PlanBackend(fingerprint string) string { return planPrefix + fingerprint }

// Key identifies one correlation pool. Model is the digest returned by
// RegisterModel for session pools (free-form for custom pools); Scheme is
// the quantization scheme designation (η); RingBits is ℓ; Batch the
// online batch size the correlations are sized for.
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

// Pair is one precomputed correlation: the two parties' paired halves.
// For session pools Server is a *core.ServerCorr and Client a
// *core.ClientCorr; custom pools store whatever their Producer returns.
type Pair struct {
	Server any
	Client any
}

// Producer generates one correlation pair for a custom pool. rng is the
// pool's deterministic stream (when the bank is seeded); calls are
// serialized per pool, so a Producer may keep state behind the closure.
type Producer func(rng *prg.PRG) (Pair, error)

// Event is one bank occurrence delivered to an Observer: Kind is "hit",
// "miss", "claim", "claim-miss", "refill", "refill-error", or "evict";
// Depth is the pool depth after the event where meaningful.
type Event struct {
	Kind  string
	Key   Key
	Depth int
	Err   error
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
	// Low is the refill watermark: a pool dropping below it triggers
	// background replenishment up to Capacity. Default Capacity/2,
	// minimum 1.
	Low int
	// Workers bounds generation compute parallelism (the internal/par
	// pool), like core.Params.Workers. 0 means one worker per CPU.
	Workers int
	// Seed, when non-zero, makes all generated correlations
	// deterministic: each pool derives an independent child stream keyed
	// by its Key, so the sequence drawn from one pool is independent of
	// interleaving with other pools. Testing only.
	Seed uint64
	// Trace, when non-nil, receives one "bank-refill" span per generated
	// pair (party "bank"), carrying the offline bytes and wall time moved
	// off the request path.
	Trace trace.Sink
	// Observer, when non-nil, receives pool hit/miss/refill/depth events;
	// see NewMetricsObserver.
	Observer Observer
	// Store, when non-nil, backs the peer-paired pools (AcquirePeer,
	// ClaimPeer, PutPeer*): halves generated with a remote peer live
	// there, durably and claim-before-use. Dealer pools are memory-only
	// either way. The store must have completed Recover before the bank
	// touches it.
	Store *Store
}

func (o Options) capacity() int {
	if o.Capacity <= 0 {
		return 8
	}
	return o.Capacity
}

func (o Options) low() int {
	if o.Low > 0 {
		return o.Low
	}
	if l := o.capacity() / 2; l > 0 {
		return l
	}
	return 1
}

// maxClaims bounds the parked-server-half map: an Acquire whose ID is
// never Claimed (client died before announcing) must not leak memory
// forever, so the oldest parked halves are evicted FIFO past this bound.
const maxClaims = 1024

// bankSession is the OT session tag of the bank's internal generator
// pairs, distinct from the live session tags in internal/core.
const bankSession = 0xBA

// Stats is a snapshot of bank counters and pool depths.
type Stats struct {
	Hits, Misses int64
	Claims       int64
	ClaimMisses  int64
	Refills      int64
	RefillErrors int64
	Depths       map[Key]int
}

type claimEntry struct {
	key  Key
	half any
}

// Bank is the correlation bank. All methods are safe for concurrent use.
type Bank struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	rng    *prg.PRG // root stream; pool children derived under mu

	mu       sync.Mutex
	models   map[string]*nn.QuantizedModel
	scheds   map[string]schedEntry
	pools    map[Key]*pool
	claims   map[uint64]claimEntry
	order    []uint64 // claim insertion order, for eviction
	nextID   uint64
	draining bool
	closed   bool

	wg sync.WaitGroup

	hits, misses, claimed, claimMisses, refills, refillErrors atomic.Int64
}

// New returns an empty bank. Register models (or custom producers), then
// Prewarm pools or let first-touch misses warm them in the background.
func New(opts Options) *Bank {
	ctx, cancel := context.WithCancel(context.Background())
	var rng *prg.PRG
	if opts.Seed != 0 {
		rng = prg.New(prg.SeedFromInt(opts.Seed))
	} else {
		rng = prg.New(prg.NewSeed())
	}
	return &Bank{
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		rng:    rng,
		models: make(map[string]*nn.QuantizedModel),
		scheds: make(map[string]schedEntry),
		pools:  make(map[Key]*pool),
		claims: make(map[uint64]claimEntry),
	}
}

// schedEntry is one registered per-layer protocol schedule, keyed by its
// plan fingerprint.
type schedEntry struct {
	sched       core.Schedule
	miniONNBits int
}

// RegisterSchedule makes planned session pools (Key.Backend =
// PlanBackend(fingerprint)) generable: their offline phase runs under
// sched instead of all-ABNN2. miniONNBits sets the Paillier key size for
// MiniONN layers (0 = default). Idempotent for identical registrations.
func (b *Bank) RegisterSchedule(fingerprint string, sched core.Schedule, miniONNBits int) error {
	if fingerprint == "" || sched == nil {
		return fmt.Errorf("bank: schedule registration needs a fingerprint and a schedule")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("bank: closed")
	}
	b.scheds[fingerprint] = schedEntry{sched: sched, miniONNBits: miniONNBits}
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

// RegisterModel makes a model's session pools available and returns the
// model ID clients put in their pool keys. Pools themselves are created
// lazily per (ring, batch) on first Acquire or Prewarm. Idempotent.
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

// RegisterProducer creates a custom pool generating pairs with gen —
// e.g. raw matmul triplets from one of the testkit backends. The key's
// Backend must not be SessionBackend (session pools are derived from
// registered models).
func (b *Bank) RegisterProducer(key Key, gen Producer) error {
	if key.Backend == SessionBackend {
		return fmt.Errorf("bank: backend %q is reserved for session pools", SessionBackend)
	}
	if gen == nil {
		return fmt.Errorf("bank: nil producer")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("bank: closed")
	}
	if _, dup := b.pools[key]; dup {
		return fmt.Errorf("bank: pool %v already registered", key)
	}
	b.pools[key] = b.newPoolLocked(key, gen)
	return nil
}

// newPoolLocked builds a pool shell; b.mu must be held (the pool's rng is
// derived from the bank root stream).
func (b *Bank) newPoolLocked(key Key, gen Producer) *pool {
	p := &pool{key: key, custom: gen, rng: b.rng.Child("pool/" + key.String())}
	if b.opts.Trace != nil {
		p.tr = trace.New(b.opts.Trace, trace.WithParty("bank"),
			trace.WithLabel(key.String()), trace.WithCounters(p.counters))
	}
	return p
}

// lookup returns the pool for key, creating a session pool on first touch
// when the key is well-formed and its model is registered; nil otherwise.
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
	switch {
	case key.Backend == SessionBackend:
	case strings.HasPrefix(key.Backend, planPrefix):
		e, ok := b.scheds[strings.TrimPrefix(key.Backend, planPrefix)]
		if !ok {
			return nil
		}
		sched, mbits = e.sched, e.miniONNBits
	default:
		return nil
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
	p := b.newPoolLocked(key, nil)
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

// Acquire draws the client half of one correlation from the pool,
// parking the server half under the returned ID for the peer session to
// Claim. ok is false when the pool is dry or the key unknown — callers
// fall back to inline offline generation or fail fast, never wait: a dry
// pool additionally triggers background warming for subsequent sessions.
func (b *Bank) Acquire(key Key) (id uint64, clientHalf any, ok bool) {
	p := b.lookup(key)
	if p == nil {
		b.misses.Add(1)
		b.observe(Event{Kind: "miss", Key: key})
		return 0, nil, false
	}
	p.mu.Lock()
	if len(p.entries) == 0 {
		p.mu.Unlock()
		b.maybeRefill(p)
		b.misses.Add(1)
		b.observe(Event{Kind: "miss", Key: key})
		return 0, nil, false
	}
	pair := p.entries[0]
	p.entries[0] = Pair{}
	p.entries = p.entries[1:]
	depth := len(p.entries)
	p.mu.Unlock()
	id = b.park(key, pair.Server)
	b.maybeRefill(p)
	b.hits.Add(1)
	b.observe(Event{Kind: "hit", Key: key, Depth: depth})
	return id, pair.Client, true
}

// park stores a server half for Claim, evicting the oldest parked half
// past maxClaims.
func (b *Bank) park(key Key, half any) uint64 {
	var evicted []Event
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	b.claims[id] = claimEntry{key: key, half: half}
	b.order = append(b.order, id)
	for len(b.claims) > maxClaims {
		old := b.order[0]
		b.order = b.order[1:]
		if e, ok := b.claims[old]; ok {
			delete(b.claims, old)
			evicted = append(evicted, Event{Kind: "evict", Key: e.key})
		}
	}
	b.mu.Unlock()
	for _, ev := range evicted {
		b.observe(ev)
	}
	return id
}

// Claim hands over the parked server half for id. The key must match the
// one the half was acquired under (a mismatch is a protocol error on the
// announcing client's side). Each ID claims at most once.
func (b *Bank) Claim(id uint64, key Key) (serverHalf any, ok bool) {
	b.mu.Lock()
	e, found := b.claims[id]
	if found && e.key == key {
		delete(b.claims, id)
		for i, v := range b.order {
			if v == id {
				b.order = append(b.order[:i], b.order[i+1:]...)
				break
			}
		}
		b.mu.Unlock()
		b.claimed.Add(1)
		b.observe(Event{Kind: "claim", Key: key})
		return e.half, true
	}
	b.mu.Unlock()
	b.claimMisses.Add(1)
	b.observe(Event{Kind: "claim-miss", Key: key})
	return nil, false
}

// Capacity returns the bank's per-pool depth bound — also the depth cap
// a remote offline session enforces per peer pool.
func (b *Bank) Capacity() int { return b.opts.capacity() }

// Low returns the bank's refill watermark.
func (b *Bank) Low() int { return b.opts.low() }

// Prewarm synchronously fills the pool to depth n (clamped to Capacity).
// Errors out rather than blocking forever when the bank is closing.
func (b *Bank) Prewarm(key Key, n int) error {
	p := b.lookup(key)
	if p == nil {
		return fmt.Errorf("bank: no pool for %v (model not registered?)", key)
	}
	if cap := b.opts.capacity(); n > cap {
		n = cap
	}
	for {
		p.mu.Lock()
		depth := len(p.entries)
		p.mu.Unlock()
		if depth >= n {
			return nil
		}
		pair, err := b.generateOne(p)
		if err != nil {
			return err
		}
		b.push(p, pair)
	}
}

// Depth returns the current depth of the pool for key (0 when absent).
func (b *Bank) Depth(key Key) int {
	b.mu.Lock()
	p := b.pools[key]
	b.mu.Unlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Snapshot returns current counters and per-pool depths.
func (b *Bank) Snapshot() Stats {
	s := Stats{
		Hits:         b.hits.Load(),
		Misses:       b.misses.Load(),
		Claims:       b.claimed.Load(),
		ClaimMisses:  b.claimMisses.Load(),
		Refills:      b.refills.Load(),
		RefillErrors: b.refillErrors.Load(),
		Depths:       make(map[Key]int),
	}
	b.mu.Lock()
	pools := make([]*pool, 0, len(b.pools))
	for _, p := range b.pools {
		pools = append(pools, p)
	}
	b.mu.Unlock()
	for _, p := range pools {
		p.mu.Lock()
		s.Depths[p.key] = len(p.entries)
		p.mu.Unlock()
	}
	return s
}

// Keys returns the bank's pool keys in deterministic order.
func (b *Bank) Keys() []Key {
	b.mu.Lock()
	keys := make([]Key, 0, len(b.pools))
	for k := range b.pools {
		keys = append(keys, k)
	}
	b.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}

// Drain stops accepting new replenishment work, waits for in-flight
// generation to finish (the SIGTERM path of cmd/abnn2-server), and
// flushes the claim journal so no claim is left in OS buffers. Returns
// ctx's error if the wait outlives it; callers should follow up with
// Close, which force-cancels whatever remains.
func (b *Bank) Drain(ctx context.Context) error {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if st := b.opts.Store; st != nil {
			return st.Sync()
		}
		return nil
	case <-ctx.Done():
		if st := b.opts.Store; st != nil {
			_ = st.Sync()
		}
		return ctx.Err()
	}
}

// Close force-stops the bank: pending refills are cancelled (in-flight
// generator protocol rounds are unblocked by closing their pipes), and
// Close returns once every background goroutine has exited. Safe to call
// more than once; Acquire and Claim report misses afterwards.
func (b *Bank) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return nil
	}
	b.closed = true
	b.draining = true
	pools := make([]*pool, 0, len(b.pools))
	for _, p := range b.pools {
		pools = append(pools, p)
	}
	b.mu.Unlock()
	b.cancel()
	for _, p := range pools {
		p.closeGen()
	}
	b.wg.Wait()
	return nil
}

// stopping reports whether new generation work should be abandoned.
func (b *Bank) stopping() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining || b.closed
}

// maybeRefill starts the pool's background replenisher when depth is
// below the low watermark and none is running. At most one replenisher
// runs per pool; generation compute inside it still fans out across the
// worker pool.
func (b *Bank) maybeRefill(p *pool) {
	if b.stopping() {
		return
	}
	low := b.opts.low()
	p.mu.Lock()
	if p.refilling || len(p.entries) >= low {
		p.mu.Unlock()
		return
	}
	p.refilling = true
	p.mu.Unlock()
	b.wg.Add(1)
	go b.refill(p)
}

// refill replenishes one pool up to Capacity, then exits. A generation
// error stops the replenisher (the next Acquire may retry); Close aborts
// it mid-pair by closing the generator pipe.
func (b *Bank) refill(p *pool) {
	defer b.wg.Done()
	cap := b.opts.capacity()
	for !b.stopping() {
		p.mu.Lock()
		depth := len(p.entries)
		p.mu.Unlock()
		if depth >= cap {
			break
		}
		pair, err := b.generateOne(p)
		if err != nil {
			b.refillErrors.Add(1)
			b.observe(Event{Kind: "refill-error", Key: p.key, Err: err})
			break
		}
		b.push(p, pair)
	}
	p.mu.Lock()
	p.refilling = false
	depth := len(p.entries)
	p.mu.Unlock()
	// An Acquire that raced with our exit saw refilling=true and skipped
	// its trigger; restart if the pool is still shallow.
	if depth < b.opts.low() && !b.stopping() {
		b.maybeRefill(p)
	}
}

// push appends a generated pair, honouring the capacity bound.
func (b *Bank) push(p *pool, pair Pair) {
	cap := b.opts.capacity()
	p.mu.Lock()
	if len(p.entries) < cap {
		p.entries = append(p.entries, pair)
	}
	depth := len(p.entries)
	p.mu.Unlock()
	b.refills.Add(1)
	b.observe(Event{Kind: "refill", Key: p.key, Depth: depth})
}

// generateOne produces one pair for p. Generation per pool is serialized
// (deterministic stream consumption); distinct pools generate
// concurrently.
func (b *Bank) generateOne(p *pool) (Pair, error) {
	p.genMu.Lock()
	defer p.genMu.Unlock()
	if err := b.ctx.Err(); err != nil {
		return Pair{}, fmt.Errorf("bank: closed")
	}
	sp := p.tr.Start("bank-refill").SetBatch(p.key.Batch)
	pair, err := p.generate(b.ctx)
	sp.End(err)
	return pair, err
}

func (b *Bank) observe(ev Event) {
	if b.opts.Observer != nil {
		b.opts.Observer.BankEvent(ev)
	}
}
