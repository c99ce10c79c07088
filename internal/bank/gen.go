package bank

import (
	"context"
	"fmt"
	"sync"

	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// pool is the filler of one loopback pool: the generator that produces its
// pairs. The halves themselves wait in the bank's store, FIFO, so a
// deterministic pool hands out pairs in generation order.
type pool struct {
	key    Key
	model  *nn.QuantizedModel
	params core.Params
	sched  core.Schedule // per-layer backend schedule; nil = all-ABNN2
	rng    *prg.PRG      // pool stream; consumed only under genMu

	genMu   sync.Mutex  // serializes generation and lazy generator setup
	session *sessionGen // set under genMu and mu; its pipe closed by Bank.Close

	mu sync.Mutex // also makes storing a pair atomic for evictParked
}

// scopes returns where the pool's halves wait: client halves under the
// loopback server's identity, server halves under the loopback client's.
func (p *pool) scopes() (client, server Scope) {
	return Scope{Peer: LoopbackServer, Key: p.key}, Scope{Peer: LoopbackClient, Key: p.key}
}

// generate produces one pair; genMu is held by the caller.
func (p *pool) generate(ctx context.Context) (*core.ServerCorr, *core.ClientCorr, error) {
	if p.session == nil {
		g, err := newSessionGen(p.model, p.params, p.rng)
		if err != nil {
			return nil, nil, err
		}
		p.mu.Lock()
		p.session = g
		p.mu.Unlock()
		// A Close that raced with setup found no pipe to close; re-check
		// so the fresh one is not left open.
		if ctx.Err() != nil {
			p.closeGen()
			return nil, nil, fmt.Errorf("bank: closed")
		}
	}
	return p.session.generate(p.key.Batch, p.sched)
}

// closeGen closes the generator pipe (one Close downs both ends),
// unblocking any in-flight offline protocol round; the interrupted
// generation surfaces as Prewarm's error.
func (p *pool) closeGen() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.session != nil {
		_ = p.session.sconn.Close()
	}
}

// sessionGen is a persistent two-party offline-phase generator: both ends
// of the loopback peer. Base OTs run once at setup; each generate
// call then runs the real offline protocol (server triplet receiver vs
// client triplet sender) over the internal pipe and returns both halves.
type sessionGen struct {
	sconn, cconn transport.Conn
	strip        *core.ServerTriplets
	ctrip        *core.ClientTriplets
	shares       *prg.PRG // the client's r0/z1 stream
	model        *nn.QuantizedModel
	arch         core.Arch
}

func newSessionGen(model *nn.QuantizedModel, p core.Params, rng *prg.PRG) (*sessionGen, error) {
	sconn, cconn := transport.Pipe()
	srng, crng, shares := rng.Child("server"), rng.Child("client"), rng.Child("shares")
	type setup struct {
		t   *core.ServerTriplets
		err error
	}
	ch := make(chan setup, 1)
	go func() {
		t, err := core.NewServerTripletsSeeded(sconn, p, bankSession, srng)
		ch <- setup{t, err}
	}()
	ctrip, cerr := core.NewClientTriplets(cconn, p, bankSession, crng)
	if cerr != nil {
		// Unblock the server half before collecting it (one Close downs
		// both pipe ends).
		_ = sconn.Close()
	}
	s := <-ch
	if cerr != nil {
		return nil, fmt.Errorf("bank: generator client setup: %w", cerr)
	}
	if s.err != nil {
		_ = sconn.Close()
		return nil, fmt.Errorf("bank: generator server setup: %w", s.err)
	}
	return &sessionGen{
		sconn: sconn, cconn: cconn,
		strip: s.t, ctrip: ctrip, shares: shares,
		model: model, arch: core.ArchOf(model),
	}, nil
}

// generate runs one offline phase, both roles concurrently, and returns
// the paired halves. A non-nil sched routes each layer to its planned
// backend; the stored halves are identical objects either way.
func (g *sessionGen) generate(batch int, sched core.Schedule) (*core.ServerCorr, *core.ClientCorr, error) {
	type result struct {
		corr *core.ServerCorr
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		corr, err := g.strip.OfflineCorrSched(g.model, batch, sched)
		ch <- result{corr, err}
	}()
	ccorr, cerr := g.ctrip.OfflineCorrSched(g.arch, g.shares, batch, sched)
	if cerr != nil {
		_ = g.sconn.Close() // release the server half before collecting it
	}
	s := <-ch
	if cerr != nil {
		return nil, nil, fmt.Errorf("bank: generator client offline: %w", cerr)
	}
	if s.err != nil {
		_ = g.sconn.Close()
		return nil, nil, fmt.Errorf("bank: generator server offline: %w", s.err)
	}
	return s.corr, ccorr, nil
}
