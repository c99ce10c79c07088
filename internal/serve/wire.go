// Package serve is the resilient multi-tenant serving runtime behind
// cmd/abnn2-server: a registry of hot models, bounded admission control,
// explicit backpressure, and offline sessions into the durable bank store
// whose halves remote clients later claim.
//
// The runtime adds one handshake round in front of the protocol: the
// client opens with a small JSON hello naming the model it wants, and the
// server answers either with the model's public architecture (admitted)
// or with a typed, wire-encoded Rejection. Rejections distinguish
// retryable overload (saturated, bank-dry, draining — each carrying a
// retry-after hint the client backs off on) from permanent refusals
// (unknown model, malformed hello), so a loaded server sheds work in one
// cheap round trip instead of hanging, dropping, or half-serving
// connections. The hello carries no protocol plan: a plan crosses the wire
// only in a batch's plan flight. See DESIGN.md, "Serving runtime".
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"abnn2"
	"abnn2/internal/transport"
)

// helloVersion is the handshake wire version, which is the protocol's
// (PROTOCOL.md, "Version"). A server answers any other version with a
// non-retryable bad-hello rejection, before any base-OT work, so the
// field also doubles as the magic that distinguishes a runtime client
// from a stray connection.
const helloVersion = 4

// maxHelloBytes bounds the first client flight. A hello is a short JSON
// object; anything bigger is hostile or lost.
const maxHelloBytes = 4096

// hello is the client's opening flight: wire version and requested model
// (empty selects the registry's default model). Offline declares a
// replenishment session — one that will prefetch, not predict: the server
// refuses it here, before any base-OT work, when it keeps no durable store
// or the store is still recovering, and accounts it apart from inference
// sessions; what runs after the handshake is the same session either way.
// A per-layer protocol plan is not part of the hello: it travels in each
// batch's plan flight, where the session checks it. The decoder ignores
// unknown keys, so a version-4 hello that still carries "plan" is admitted
// as if it did not.
type hello struct {
	V       int    `json:"abnn2"`
	Model   string `json:"model,omitempty"`
	Offline bool   `json:"offline,omitempty"`
}

// helloReply is the server's answer: the model's public architecture and
// the session's public parameters — the share ring width l (never 0 on
// admission) and the ReLU protocol — on admission, a Rejection otherwise.
// BankID is the model's bank identity and Peer the server's durable bank
// identity, both present only when the server runs a durable bank —
// together they let the client key peer-paired pools identically to the
// server.
type helloReply struct {
	OK            bool            `json:"ok"`
	Model         string          `json:"model,omitempty"`
	Arch          json.RawMessage `json:"arch,omitempty"`
	RingBits      uint            `json:"ring_bits,omitempty"`
	OptimizedReLU bool            `json:"optimized_relu,omitempty"`
	BankID        string          `json:"bank_id,omitempty"`
	Peer          string          `json:"peer,omitempty"`
	// Session is the server-assigned session id. Clients stamp their
	// spans and flights with it so the two parties' dumps merge into one
	// timeline (abnn2-inspect -timeline).
	Session uint64     `json:"session,omitempty"`
	Reject  *Rejection `json:"reject,omitempty"`
}

// Rejection codes. Saturated, bank-dry and draining are retryable: the
// condition is expected to clear and the rejection carries a retry-after
// hint. Unknown-model and bad-hello are permanent for this server.
const (
	RejectSaturated    = "saturated"     // admission capacity exhausted
	RejectBankDry      = "bank-dry"      // offline hello while the bank store recovers
	RejectDraining     = "draining"      // shutdown in progress
	RejectUnknownModel = "unknown-model" // requested model not registered
	RejectBadHello     = "bad-hello"     // malformed or wrong-version hello
	// RejectBadPlan is no longer sent: a plan is checked per batch, at its
	// plan flight. It stays declared for callers that list every code.
	RejectBadPlan = "bad-plan"
)

// Rejection is the typed load-shedding answer of an overloaded or
// unwilling server. Retryable rejections always carry a non-zero
// RetryAfterMillis hint; clients should wait about that long (with
// jitter) before reconnecting.
type Rejection struct {
	Code             string `json:"code"`
	Retryable        bool   `json:"retryable"`
	RetryAfterMillis int64  `json:"retry_after_ms,omitempty"`
	Reason           string `json:"reason,omitempty"`
}

// RetryAfter returns the server's backoff hint as a duration (zero when
// the rejection is not retryable or carried no hint).
func (r Rejection) RetryAfter() time.Duration {
	if r.RetryAfterMillis <= 0 {
		return 0
	}
	return time.Duration(r.RetryAfterMillis) * time.Millisecond
}

// RejectError is a Rejection as a client-side error, returned by
// ClientHandshakeInfo and DialModelInfo. Use errors.As to recover the typed
// rejection and its retry hint.
type RejectError struct {
	Rejection Rejection
}

func (e *RejectError) Error() string {
	r := e.Rejection
	if r.Retryable {
		return fmt.Sprintf("serve: rejected (%s, retry after %v): %s", r.Code, r.RetryAfter(), r.Reason)
	}
	return fmt.Sprintf("serve: rejected (%s): %s", r.Code, r.Reason)
}

// Temporary reports whether the server marked the rejection retryable,
// matching the net.Error convention retry loops already understand.
func (e *RejectError) Temporary() bool { return e.Rejection.Retryable }

// HandshakeInfo is everything an admitted handshake tells the client:
// the model's public architecture, the session parameters both parties
// must share, ready for abnn2.Config.RingBits/OptimizedReLU, and — when
// the server runs a durable bank — the model's bank identity and the
// server's durable peer ID, ready for abnn2.Config.BankModel/BankPeer.
type HandshakeInfo struct {
	Model         string
	Arch          abnn2.Arch
	RingBits      uint
	OptimizedReLU bool
	BankID        string
	Peer          string
	// SessionID is the server-assigned session id; set it as
	// abnn2.Config.SessionID so client-side spans and flights correlate
	// with the server's dump of the same session.
	SessionID uint64
}

// ClientHandshakeInfo performs one handshake attempt on an established
// connection: it sends the hello for the named model (empty = server
// default) and decodes the reply. A server-side rejection comes back as
// a *RejectError; on success the returned architecture and session
// parameters are ready for abnn2.Dial on the same connection.
func ClientHandshakeInfo(conn abnn2.Conn, model string) (HandshakeInfo, error) {
	return clientHandshake(conn, hello{V: helloVersion, Model: model})
}

// clientHandshake sends h and decodes the full reply.
func clientHandshake(conn abnn2.Conn, h hello) (HandshakeInfo, error) {
	var info HandshakeInfo
	raw, err := json.Marshal(h)
	if err != nil {
		return info, err
	}
	if err := conn.Send(raw); err != nil {
		return info, fmt.Errorf("serve: send hello: %w", err)
	}
	reply, err := conn.Recv()
	if err != nil {
		return info, fmt.Errorf("serve: recv hello reply: %w", err)
	}
	var hr helloReply
	if err := json.Unmarshal(reply, &hr); err != nil {
		return info, fmt.Errorf("serve: malformed hello reply: %w", err)
	}
	if !hr.OK {
		if hr.Reject == nil {
			return info, fmt.Errorf("serve: rejected without a reason")
		}
		return info, &RejectError{Rejection: *hr.Reject}
	}
	if err := json.Unmarshal(hr.Arch, &info.Arch); err != nil {
		return info, fmt.Errorf("serve: malformed architecture: %w", err)
	}
	if hr.RingBits == 0 {
		return info, fmt.Errorf("serve: hello reply carries no ring width")
	}
	info.Model, info.RingBits, info.OptimizedReLU = hr.Model, hr.RingBits, hr.OptimizedReLU
	info.BankID, info.Peer, info.SessionID = hr.BankID, hr.Peer, hr.Session
	return info, nil
}

// defaultRetryAfter backs off a retryable rejection that carried no hint
// (a server older than the hint field, or a zero estimate).
const defaultRetryAfter = 100 * time.Millisecond

// DialModelInfo connects to a serving runtime over TCP and completes the
// model handshake, honoring the server's backpressure: retryable
// rejections are retried with the server's retry-after hint (jittered)
// until ctx expires, while permanent rejections fail immediately. On
// success the connection is admitted and the returned info — the
// architecture, and the bank identity and server peer ID for clients that
// provision from peer-paired pools (abnn2.Config.BankModel/BankPeer) —
// is ready for abnn2.Dial.
func DialModelInfo(ctx context.Context, addr, model string) (abnn2.Conn, HandshakeInfo, error) {
	return dialHello(ctx, addr, hello{V: helloVersion, Model: model})
}

// DialOffline is DialModelInfo declaring a replenishment session (see
// hello.Offline): on success the connection is admitted and ready for
// abnn2.Dial with the returned BankID and Peer, then Client.Prefetch.
func DialOffline(ctx context.Context, addr, model string) (abnn2.Conn, HandshakeInfo, error) {
	return dialHello(ctx, addr, hello{V: helloVersion, Model: model, Offline: true})
}

func dialHello(ctx context.Context, addr string, h hello) (abnn2.Conn, HandshakeInfo, error) {
	for {
		conn, err := abnn2.DialTCP(ctx, addr)
		if err != nil {
			return nil, HandshakeInfo{}, err
		}
		info, err := clientHandshake(conn, h)
		if err == nil {
			return conn, info, nil
		}
		conn.Close()
		var rej *RejectError
		if !errors.As(err, &rej) || !rej.Temporary() {
			return nil, info, err
		}
		wait := rej.Rejection.RetryAfter()
		if wait <= 0 {
			wait = defaultRetryAfter
		}
		select {
		case <-ctx.Done():
			return nil, info, fmt.Errorf("serve: dial %s: %w (last rejection: %v)", addr, ctx.Err(), err)
		case <-time.After(transport.Jitter(wait)):
		}
	}
}
