package abnn2

// Control frames of the session layer: the batch announcement that opens
// every batch and the server's replies to one that says "store". This
// file is the only code that knows their byte layouts (PROTOCOL.md §0,
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
//	29  u32 batch | u8 mode | u64 corr | 16-byte peer    peer-banked, or store
const (
	annInlineLen   = 5
	annLoopbackLen = annInlineLen + 8
	annPeerLen     = annLoopbackLen + len(bank.PeerID{})
)

// Mode-byte bits of an announcement. Store is valid on the 29-byte
// layout only and never beside argmax.
const (
	announceArgmax = 0x01 // private argmax finish
	announcePlan   = 0x02 // a plan frame follows the announcement
	announceStore  = 0x04 // no prediction: generate the batch's offline material and store it
)

// announcement is one batch announcement, the client's first flight of
// every batch.
type announcement struct {
	batch  int
	argmax bool // finish with the garbled-circuit argmax
	plan   bool // a plan frame follows
	store  bool // no prediction: generate the batch's offline material and store it under corr
	source provisioning
	corr   uint64      // correlation id: the one to claim, or with store the fresh one to store under
	peer   bank.PeerID // the announcing client's identity; on the wire for provisionPeer only
}

// rootSpan names the root trace span of the batch a announces: only a
// prediction is a "batch".
func (a announcement) rootSpan() string {
	if a.store {
		return "offline-replenish"
	}
	return "batch"
}

func (a announcement) append(dst []byte) []byte {
	var mode byte
	if a.argmax {
		mode |= announceArgmax
	}
	if a.plan {
		mode |= announcePlan
	}
	if a.store {
		mode |= announceStore
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
// every length but the three layouts, an unknown mode bit, a store bit off
// the peer layout or beside argmax, and a batch outside [1, maxBatch] are
// errors.
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
	if mode > announceArgmax|announcePlan|announceStore {
		return a, fmt.Errorf("abnn2: unknown output mode %d", mode)
	}
	a.argmax, a.plan, a.store = mode&announceArgmax != 0, mode&announcePlan != 0, mode&announceStore != 0
	if a.store && (a.source != provisionPeer || a.argmax) {
		return a, fmt.Errorf("abnn2: malformed store announcement")
	}
	if a.source != provisionInline {
		a.corr = binary.LittleEndian.Uint64(raw[annInlineLen:])
	}
	if a.source == provisionPeer {
		copy(a.peer[:], raw[annLoopbackLen:])
	}
	return a, nil
}

// Kinds of the server's reply to a store announcement, each
// kind | u64 corr, 9 bytes: one decision before generation (go or nak),
// and after a go one outcome once the server's half is on disk (ack) or
// could not be put there (nak).
const (
	offlineGo  = 'G'
	offlineAck = 'A'
	offlineNak = 'N'
)

const offlineFrameLen = 9

// offlineFrame is one reply to a store announcement.
type offlineFrame struct {
	kind byte
	id   uint64 // the announced correlation id, echoed
}

func (f offlineFrame) append(dst []byte) []byte {
	return binary.LittleEndian.AppendUint64(append(dst, f.kind), f.id)
}

// parseOfflineFrame is the inverse of append. Its errors say what is
// wrong with the frame; the caller says which flight it was.
func parseOfflineFrame(raw []byte) (offlineFrame, error) {
	if len(raw) != offlineFrameLen {
		return offlineFrame{}, fmt.Errorf("frame is %d bytes, want %d", len(raw), offlineFrameLen)
	}
	f := offlineFrame{kind: raw[0], id: binary.LittleEndian.Uint64(raw[1:])}
	if f.kind != offlineGo && f.kind != offlineAck && f.kind != offlineNak {
		return offlineFrame{}, fmt.Errorf("unknown frame kind %#x", f.kind)
	}
	return f, nil
}
