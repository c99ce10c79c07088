package bank

import (
	"fmt"

	"abnn2/internal/core"
)

// This file is the bank's durable API surface: the peer-paired pools that
// replace the in-process trusted dealer for genuinely remote
// client/server pairs (see offline.go in the root package for the wire
// protocol that fills them).

// Store returns the bank's durable store, nil for a memory-only bank.
func (b *Bank) Store() *Store { return b.opts.Store }

// PutPeerClient durably stores the client half of a peer-paired
// correlation generated with the server identified by peer (the
// client-side commit of one remote offline round).
func (b *Bank) PutPeerClient(peer PeerID, key Key, id uint64, c *core.ClientCorr) error {
	st := b.opts.Store
	if st == nil {
		return fmt.Errorf("bank: no durable store")
	}
	return st.Append(Scope{Peer: peer, Key: key}, id, EncodeClientCorr(c))
}

// PutPeerServer durably stores the server half of a peer-paired
// correlation generated with the client identified by peer.
func (b *Bank) PutPeerServer(peer PeerID, key Key, id uint64, c *core.ServerCorr) error {
	st := b.opts.Store
	if st == nil {
		return fmt.Errorf("bank: no durable store")
	}
	return st.Append(Scope{Peer: peer, Key: key}, id, EncodeServerCorr(c))
}

// AcquirePeer draws (and durably claims) the oldest client half paired
// with the server identified by peer. The returned id is the correlation
// id the client announces in-band; the server looks the matching half up
// under the client's own peer id via ClaimPeer. ok is false when the
// peer pool is dry — callers fall back to the inline offline phase or
// fail.
func (b *Bank) AcquirePeer(peer PeerID, key Key) (id uint64, clientHalf *core.ClientCorr, ok bool) {
	st := b.opts.Store
	if st == nil {
		return 0, nil, false
	}
	scope := Scope{Peer: peer, Key: key}
	for {
		id, blob, ok, err := st.Draw(scope)
		if err != nil || !ok {
			if err != nil {
				b.observe(Event{Kind: "persist-claim-drop", Key: key, Err: err})
			}
			b.observe(Event{Kind: "peer-miss", Key: key})
			return 0, nil, false
		}
		c, derr := DecodeClientCorr(blob)
		if derr != nil {
			// Already claimed; just skip it and try the next record.
			b.observe(Event{Kind: "persist-decode-error", Key: key, Err: derr})
			continue
		}
		b.observe(Event{Kind: "peer-hit", Key: key, Depth: st.Depth(scope)})
		return id, c, true
	}
}

// ClaimPeer durably claims the server half stored under the announcing
// client's peer id and the announced correlation id. Single-use: the
// claim journal entry lands before the half is returned, so the same id
// can never back two online phases even across SIGKILL.
func (b *Bank) ClaimPeer(peer PeerID, id uint64, key Key) (serverHalf *core.ServerCorr, ok bool) {
	st := b.opts.Store
	if st == nil {
		return nil, false
	}
	scope := Scope{Peer: peer, Key: key}
	blob, ok, err := st.ClaimByID(scope, id)
	if err != nil || !ok {
		if err != nil {
			b.observe(Event{Kind: "persist-claim-drop", Key: key, Err: err})
		}
		b.observe(Event{Kind: "peer-claim-miss", Key: key})
		return nil, false
	}
	c, derr := DecodeServerCorr(blob)
	if derr != nil {
		b.observe(Event{Kind: "persist-decode-error", Key: key, Err: derr})
		b.observe(Event{Kind: "peer-claim-miss", Key: key})
		return nil, false
	}
	b.observe(Event{Kind: "peer-claim", Key: key})
	return c, true
}

// PeerDepth returns the number of unclaimed halves stored under the
// (peer, key) pool — the replenisher's watermark input.
func (b *Bank) PeerDepth(peer PeerID, key Key) int {
	st := b.opts.Store
	if st == nil {
		return 0
	}
	return st.Depth(Scope{Peer: peer, Key: key})
}
