package abnn2

// Control frames of the session layer: the batch announcement that opens
// every prediction and the frames of a remote offline session. This file
// is the only code that knows their byte layouts (PROTOCOL.md §0,
// "Control frames"); all integers are little-endian.

import (
	"encoding/binary"
	"fmt"

	"abnn2/internal/bank"
)

// maxBatch bounds an announced or requested batch size.
const maxBatch = 1 << 20

// provisioning is where a batch's offline material comes from. A client
// picks one at Dial; each announcement tells the server which one the
// batch actually used.
type provisioning uint8

const (
	provisionInline   provisioning = iota // the offline phase runs on the request path
	provisionLoopback                     // a half drawn from the bank's loopback pool, filled in this process
	provisionPeer                         // a half drawn from the pool this party filled with the remote server
)

// span names the trace span around a banked draw or claim.
func (p provisioning) span() string {
	if p == provisionPeer {
		return "bank-peer"
	}
	return "bank"
}

// Announcement layouts, by length:
//
//	 5  u32 batch | u8 mode                              inline
//	13  u32 batch | u8 mode | u64 corr                   loopback-banked
//	29  u32 batch | u8 mode | u64 corr | 16-byte peer    peer-banked
const (
	annInlineLen   = 5
	annLoopbackLen = annInlineLen + 8
	annPeerLen     = annLoopbackLen + len(bank.PeerID{})
)

// Mode-byte bits of an announcement.
const (
	announceArgmax = 0x01 // private argmax finish
	announcePlan   = 0x02 // a plan frame follows the announcement
)

// announcement is one batch announcement, the client's first flight of
// every prediction.
type announcement struct {
	batch  int
	argmax bool // finish with the garbled-circuit argmax
	plan   bool // a plan frame follows
	source provisioning
	corr   uint64      // correlation id; banked sources only
	peer   bank.PeerID // the announcing client's identity; on the wire for provisionPeer only
}

func (a announcement) append(dst []byte) []byte {
	var mode byte
	if a.argmax {
		mode |= announceArgmax
	}
	if a.plan {
		mode |= announcePlan
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.batch))
	dst = append(dst, mode)
	if a.source == provisionInline {
		return dst
	}
	dst = binary.LittleEndian.AppendUint64(dst, a.corr)
	if a.source == provisionPeer {
		dst = append(dst, a.peer[:]...)
	}
	return dst
}

// parseAnnouncement is the inverse of append. The bytes are the peer's:
// every length but the three layouts, an unknown mode bit and a batch
// outside [1, maxBatch] are errors.
func parseAnnouncement(raw []byte) (announcement, error) {
	var a announcement
	switch len(raw) {
	case annInlineLen:
		a.source = provisionInline
	case annLoopbackLen:
		a.source, a.peer = provisionLoopback, bank.LoopbackClient
	case annPeerLen:
		a.source = provisionPeer
	default:
		return a, fmt.Errorf("abnn2: malformed batch announcement")
	}
	// Compared unsigned, so a 32-bit int cannot wrap a huge size negative.
	batch := binary.LittleEndian.Uint32(raw)
	if batch == 0 || batch > maxBatch {
		return a, fmt.Errorf("abnn2: batch size %d out of range", batch)
	}
	a.batch = int(batch)
	mode := raw[4]
	if mode > announceArgmax|announcePlan {
		return a, fmt.Errorf("abnn2: unknown output mode %d", mode)
	}
	a.argmax, a.plan = mode&announceArgmax != 0, mode&announcePlan != 0
	if a.source != provisionInline {
		a.corr = binary.LittleEndian.Uint64(raw[annInlineLen:])
	}
	if a.source == provisionPeer {
		copy(a.peer[:], raw[annLoopbackLen:])
	}
	return a, nil
}

// Offline-session frame kinds; see offline.go for the exchange.
//
//	'R' | u64 id | u32 batch    13 bytes
//	'G' | u64 id                 9 bytes (likewise 'N', 'A')
//	'D'                          1 byte
const (
	offlineReq  = 'R'
	offlineGo   = 'G'
	offlineAck  = 'A'
	offlineNak  = 'N'
	offlineDone = 'D'
)

// offlineFrame is one control frame of a remote offline session.
type offlineFrame struct {
	kind  byte
	id    uint64 // correlation id; every kind but done
	batch int    // request only
}

// fromClient reports whether f is a kind the client sends; the rest are
// the server's replies.
func (f offlineFrame) fromClient() bool { return f.kind == offlineReq || f.kind == offlineDone }

func (f offlineFrame) append(dst []byte) []byte {
	dst = append(dst, f.kind)
	if f.kind == offlineDone {
		return dst
	}
	dst = binary.LittleEndian.AppendUint64(dst, f.id)
	if f.kind == offlineReq {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.batch))
	}
	return dst
}

// parseOfflineFrame is the inverse of append: each kind has exactly one
// length, and a request's batch must lie in [1, maxBatch]. Its errors say
// what is wrong with the frame; the caller says which flight it was.
func parseOfflineFrame(raw []byte) (offlineFrame, error) {
	var f offlineFrame
	if len(raw) == 0 {
		return f, fmt.Errorf("empty frame")
	}
	f.kind = raw[0]
	want := 9
	switch f.kind {
	case offlineReq:
		want = 13
	case offlineGo, offlineAck, offlineNak:
	case offlineDone:
		want = 1
	default:
		return f, fmt.Errorf("unknown frame kind %#x", f.kind)
	}
	if len(raw) != want {
		return f, fmt.Errorf("frame %q is %d bytes, want %d", f.kind, len(raw), want)
	}
	if f.kind == offlineDone {
		return f, nil
	}
	f.id = binary.LittleEndian.Uint64(raw[1:])
	if f.kind == offlineReq {
		batch := binary.LittleEndian.Uint32(raw[9:])
		if batch == 0 || batch > maxBatch {
			return f, fmt.Errorf("batch %d out of range", batch)
		}
		f.batch = int(batch)
	}
	return f, nil
}
