package bank

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
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
	// Keys are the pools to keep warm.
	Keys []Key
	// Low is the refill watermark: a pool at or below it triggers a
	// replenishment session. Default Bank's low watermark.
	Low int
	// Target is the fill target per pool. Default Bank's capacity.
	Target int
	// Interval is the watermark poll cadence. Default 500ms.
	Interval time.Duration
	// MinBackoff/MaxBackoff bound the jittered exponential backoff after
	// a failed replenishment. Defaults 100ms and 30s.
	MinBackoff, MaxBackoff time.Duration
	// Run performs one replenishment session. Required.
	Run ReplenishFunc
}

func (o ReplenishOptions) low() int {
	if o.Low > 0 {
		return o.Low
	}
	return o.Bank.opts.low()
}

func (o ReplenishOptions) target() int {
	if o.Target > 0 {
		return o.Target
	}
	return o.Bank.opts.capacity()
}

func (o ReplenishOptions) interval() time.Duration {
	if o.Interval > 0 {
		return o.Interval
	}
	return 500 * time.Millisecond
}

func (o ReplenishOptions) minBackoff() time.Duration {
	if o.MinBackoff > 0 {
		return o.MinBackoff
	}
	return 100 * time.Millisecond
}

func (o ReplenishOptions) maxBackoff() time.Duration {
	if o.MaxBackoff > 0 {
		return o.MaxBackoff
	}
	return 30 * time.Second
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
	t := time.NewTicker(r.opts.interval())
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
		if depth > r.opts.low() {
			continue
		}
		want := r.opts.target() - depth
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
		r.backoff = r.opts.minBackoff()
	} else {
		r.backoff *= 2
		if max := r.opts.maxBackoff(); r.backoff > max {
			r.backoff = max
		}
	}
	d := r.backoff
	r.mu.Unlock()
	r.opts.Bank.observe(Event{Kind: "replenish-backoff", Key: key, Depth: int(d.Milliseconds())})
	wait := d/2 + rand.N(d)
	select {
	case <-r.ctx.Done():
	case <-time.After(wait):
	}
}

func (r *Replenisher) setBackoff(d time.Duration) {
	r.mu.Lock()
	r.backoff = d
	r.mu.Unlock()
}
