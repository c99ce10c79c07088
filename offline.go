package abnn2

// Remote offline sessions: a genuinely remote client/server pair runs
// the real two-party offline protocol over its connection ahead of need
// and each party durably stores its own half of every correlation,
// keyed by the peer it generated with. No in-process dealer is
// involved — the material is exactly what a live offline phase produces,
// because it IS a live offline phase, just run early. Later online
// sessions announce a stored correlation id (plus the client's peer id)
// and skip the offline phase entirely.
//
// The exchange, after the serve-layer offline handshake, one correlation
// per round trip (frame layouts: frames.go):
//
//	client → server  'R' id batch    request one correlation
//	server → client  'G' id          accepted: both sides now run the
//	                                 offline protocol
//	server → client  'N' id          refused (pool at capacity, duplicate
//	                                 id, store error)
//	server → client  'A' id          server half persisted
//	client → server  'D'             done, close cleanly
//
// The decision round ('G'/'N') precedes generation so a refused request
// costs one round trip, not an offline phase. The server persists before
// acking; a client that crashes between 'A' and its own persist strands
// one server half, which is never claimable and costs its disk space and
// one unit of that peer's pool capacity.

import (
	"context"
	"errors"
	"fmt"
	"io"

	"abnn2/internal/bank"
	"abnn2/internal/core"
	"abnn2/internal/quant"
	"abnn2/internal/transport"
)

// offlineSessionTag is the OT session tag of remote offline sessions,
// distinct from both live sessions and the bank's loopback filler
// (0xBA).
const offlineSessionTag = 0xBC

// ServeOfflineSession runs the server side of a remote offline-
// replenishment session until the client sends done or hangs up. Every
// generated server half is persisted under the client's peer id before
// it is acknowledged; cfg.Bank must carry a recovered durable store.
// Returns nil on a clean client shutdown.
func ServeOfflineSession(ctx context.Context, conn Conn, model *QuantizedModel, cfg Config, clientPeer BankPeerID) error {
	if cfg.Bank == nil || cfg.Bank.Store() == nil {
		return fmt.Errorf("abnn2: offline sessions require a bank with a durable store")
	}
	b := cfg.Bank
	modelID, err := bank.ModelID(model.qm)
	if err != nil {
		return err
	}
	scheme := model.qm.Layers[0].Scheme
	s, strip, err := openSession(ctx, conn, cfg, "server", scheme,
		func(sc *sessionConn, p core.Params) (*core.ServerTriplets, error) {
			return core.NewServerTripletsSeeded(sc, p, offlineSessionTag, cfg.rng())
		})
	if err != nil {
		return err
	}
	defer s.sc.release()
	reply := func(kind byte, id uint64) error {
		return s.sc.Send(offlineFrame{kind: kind, id: id}.append(nil))
	}
	key := BankKey{Model: modelID, Scheme: scheme.Name(), RingBits: cfg.ringBits(), Backend: bank.SessionBackend}
	for {
		raw, err := s.sc.recvIdle()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) || errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		req, err := parseOfflineFrame(raw)
		if err == nil && !req.fromClient() {
			err = fmt.Errorf("a server's frame %q", req.kind)
		}
		if err != nil {
			return fmt.Errorf("abnn2: malformed offline request: %w", err)
		}
		if req.kind == offlineDone {
			return nil
		}
		key.Batch = req.batch
		// Refuse before generating: a full pool or reused id costs the
		// client one round trip, not a wasted offline phase.
		if b.Depth(clientPeer, key) >= b.Capacity() {
			if err := reply(offlineNak, req.id); err != nil {
				return err
			}
			continue
		}
		if err := reply(offlineGo, req.id); err != nil {
			return err
		}
		osp := s.tr.Start("offline-replenish").SetBatch(req.batch)
		corr, err := guardVal("offline replenish", func() (*core.ServerCorr, error) {
			return strip.OfflineCorr(model.qm, req.batch)
		})
		osp.End(err)
		if err != nil {
			// The two sides are mid-protocol; there is no resync point.
			return err
		}
		status := byte(offlineAck)
		if perr := b.Put(clientPeer, key, req.id, bank.EncodeServerCorr(corr)); perr != nil {
			status = offlineNak
		}
		if err := reply(status, req.id); err != nil {
			return err
		}
	}
}

// ReplenishSession runs the client side of a remote offline session over
// an admitted offline connection: it requests up to n correlations of
// the given batch size and durably stores every acknowledged client
// half under serverPeer. cfg.BankModel must be the server's bank id
// (from the offline handshake) so both parties key the same pool.
// Returns how many correlations landed; fewer than n with a nil error
// means the server's pool for this peer is at capacity.
func ReplenishSession(ctx context.Context, conn Conn, arch Arch, cfg Config, serverPeer BankPeerID, batch, n int) (int, error) {
	if cfg.Bank == nil || cfg.Bank.Store() == nil {
		return 0, fmt.Errorf("abnn2: replenish sessions require a bank with a durable store")
	}
	if cfg.BankModel == "" {
		return 0, fmt.Errorf("abnn2: replenish sessions require Config.BankModel")
	}
	if batch <= 0 || batch > maxBatch {
		return 0, fmt.Errorf("abnn2: batch size %d out of range", batch)
	}
	b := cfg.Bank
	scheme, err := quant.Parse(arch.SchemeName)
	if err != nil {
		return 0, fmt.Errorf("abnn2: architecture scheme: %w", err)
	}
	root := cfg.rng()
	trng, shares := root.Child("triplets"), root.Child("shares")
	s, ctrip, err := openSession(ctx, conn, cfg, "client", scheme,
		func(sc *sessionConn, p core.Params) (*core.ClientTriplets, error) {
			return core.NewClientTriplets(sc, p, offlineSessionTag, trng)
		})
	if err != nil {
		return 0, err
	}
	defer s.sc.release()
	key := BankKey{Model: cfg.BankModel, Scheme: arch.SchemeName, RingBits: cfg.ringBits(),
		Batch: batch, Backend: bank.SessionBackend}
	done := func(got int) (int, error) {
		// Best-effort: the server also treats a hangup as a clean end.
		_ = s.sc.Send(offlineFrame{kind: offlineDone}.append(nil))
		return got, nil
	}
	// reply reads the server's next frame about correlation id.
	reply := func(id uint64) (byte, error) {
		raw, err := s.sc.Recv()
		if err != nil {
			return 0, err
		}
		f, err := parseOfflineFrame(raw)
		if err == nil && f.fromClient() {
			err = fmt.Errorf("a client's frame %q", f.kind)
		}
		if err != nil {
			return 0, fmt.Errorf("abnn2: malformed offline reply: %w", err)
		}
		if f.id != id {
			return 0, fmt.Errorf("abnn2: offline reply for id %d, want %d", f.id, id)
		}
		return f.kind, nil
	}
	got := 0
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			_, _ = done(got)
			return got, ctx.Err()
		}
		id := bank.NewCorrID()
		if err := s.sc.Send(offlineFrame{kind: offlineReq, id: id, batch: batch}.append(nil)); err != nil {
			return got, err
		}
		status, err := reply(id)
		if err != nil {
			return got, err
		}
		if status == offlineNak {
			return done(got) // pool at capacity: not an error, just enough
		}
		if status != offlineGo {
			return got, fmt.Errorf("abnn2: unexpected offline reply %#x", status)
		}
		osp := s.tr.Start("offline-replenish").SetBatch(batch)
		corr, err := guardVal("replenish offline", func() (*core.ClientCorr, error) {
			return ctrip.OfflineCorr(arch, shares, batch)
		})
		osp.End(err)
		if err != nil {
			return got, err
		}
		if status, err = reply(id); err != nil {
			return got, err
		}
		if status == offlineAck {
			if err := b.Put(serverPeer, key, id, bank.EncodeClientCorr(corr)); err != nil {
				return got, err
			}
			got++
		}
		// A nak after generation: the server failed to persist; drop our
		// half and keep going — the streams stay in lockstep either way.
	}
	return done(got)
}
