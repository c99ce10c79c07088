package bank

import (
	"context"
	"fmt"
	"sync"
	"time"

	"abnn2/internal/transport"
)

// ReplenishFunc runs one replenishment session against the remote peer:
// generate up to n correlations for key and store both parties' halves
// (the abnn2 facade's Client.Prefetch, on a session dialled for it). It
// returns how many correlations actually landed — fewer than n is fine
// (the server may be at capacity) — and an error only for failures worth
// backing off on (link down, handshake rejected, protocol failure).
type ReplenishFunc func(ctx context.Context, key Key, n int) (int, error)

// ReplenishOptions configures a Replenisher.
type ReplenishOptions struct {
	// Bank supplies depth introspection and the observer. Required.
	Bank *Bank
	// Peer identifies the remote party whose paired pools are maintained.
	Peer PeerID
	// Keys are the pools to keep warm: a pool at or below the Bank's low
	// watermark is refilled up to the Bank's capacity.
	Keys []Key
	// Run performs one replenishment session. Required.
	Run ReplenishFunc

	// Test hooks; zero means the default. interval is the watermark poll
	// cadence (500ms); minBackoff and maxBackoff bound the jittered
	// exponential backoff after a failed replenishment (100ms, 30s).
	interval, minBackoff, maxBackoff time.Duration
}

// orDefault is d, or def when d is zero.
func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// Replenisher keeps a set of peer-paired pools above their low watermark
// by running replenishment sessions in the background: low-watermark
// polling and jittered exponential backoff on transient failures. One
// goroutine serves all keys — replenishment is offline-phase heavy, so
// sessions are sequential by design.
type Replenisher struct {
	opts   ReplenishOptions
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	backoff time.Duration // 0 = healthy
}

// NewReplenisher validates options and returns a stopped replenisher;
// call Start to begin and Close to stop.
func NewReplenisher(opts ReplenishOptions) (*Replenisher, error) {
	if opts.Bank == nil {
		return nil, fmt.Errorf("bank: replenisher requires a Bank")
	}
	if opts.Run == nil {
		return nil, fmt.Errorf("bank: replenisher requires a Run func")
	}
	if len(opts.Keys) == 0 {
		return nil, fmt.Errorf("bank: replenisher requires at least one pool key")
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Replenisher{opts: opts, ctx: ctx, cancel: cancel}, nil
}

// Start launches the background loop. Call once.
func (r *Replenisher) Start() {
	r.wg.Add(1)
	go r.loop()
}

// Backoff reports the current failure backoff (0 when healthy).
func (r *Replenisher) Backoff() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.backoff
}

// Close stops the loop and waits for any in-flight replenishment session
// to notice the cancelled context and return. Safe to call more than
// once.
func (r *Replenisher) Close() {
	r.cancel()
	r.wg.Wait()
}

func (r *Replenisher) loop() {
	defer r.wg.Done()
	t := time.NewTicker(orDefault(r.opts.interval, 500*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			r.sweep()
		}
	}
}

// sweep replenishes every key below the watermark. A failure backs off
// before the next key is attempted (one flaky link should not turn into
// a hammering loop across pools); success resets the backoff.
func (r *Replenisher) sweep() {
	b := r.opts.Bank
	for _, key := range r.opts.Keys {
		if r.ctx.Err() != nil {
			return
		}
		depth := b.Depth(r.opts.Peer, key)
		if depth > b.opts.low() {
			continue
		}
		want := b.opts.capacity() - depth
		if want <= 0 {
			continue
		}
		got, err := r.opts.Run(r.ctx, key, want)
		if err != nil {
			b.observe(Event{Kind: "replenish-retry", Key: key, Err: err})
			r.backOff(key)
			continue
		}
		r.setBackoff(0)
		b.observe(Event{Kind: "replenish-backoff", Key: key, Depth: 0})
		if got > 0 {
			b.observe(Event{Kind: "replenish-round", Key: key, Depth: b.Depth(r.opts.Peer, key)})
		}
	}
}

// backOff doubles (capped, jittered over [d/2, 3d/2)) and sleeps,
// interruptible by Close.
func (r *Replenisher) backOff(key Key) {
	r.mu.Lock()
	if r.backoff == 0 {
		r.backoff = orDefault(r.opts.minBackoff, 100*time.Millisecond)
	} else {
		r.backoff *= 2
		if max := orDefault(r.opts.maxBackoff, 30*time.Second); r.backoff > max {
			r.backoff = max
		}
	}
	d := r.backoff
	r.mu.Unlock()
	r.opts.Bank.observe(Event{Kind: "replenish-backoff", Key: key, Depth: int(d.Milliseconds())})
	select {
	case <-r.ctx.Done():
	case <-time.After(transport.Jitter(d)):
	}
}

func (r *Replenisher) setBackoff(d time.Duration) {
	r.mu.Lock()
	r.backoff = d
	r.mu.Unlock()
}
