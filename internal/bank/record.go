package bank

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"abnn2/internal/core"
	"abnn2/internal/ring"
)

// On-disk record formats of the durable bank store. Everything here is
// parsed defensively: a store directory may be shared between operators,
// restored from backup, or tampered with, so every decoder is
// length-checked, bounded, and returns errors instead of panicking (the
// fuzz targets in fuzz_test.go hold it to that).
//
// Segment file:
//
//	"ABNN2SG1" | u16 scopeLen | scope string      (header)
//	u32 payloadLen | u32 crc32c(payload) | payload ...   (records)
//	payload := u64 correlation id | corr blob
//
// Claim journal (one per store, shared by all pools):
//
//	"ABNN2JN1"                                    (header)
//	u64 scopeHash | u64 id | u32 crc32c(first 16) ...    (20-byte entries)
//
// Correlation blob (self-describing, tag first):
//
//	'S' | u32 batch | u32 n | n x mat             server half
//	'C' | u32 batch | mat R0 | u32 n | n x mat V | u32 n | n x (u8 present [mat]) Z1
//	mat := u32 rows | u32 cols | rows*cols x u64
//
// All integers little-endian. Ring elements are stored as full 8-byte
// words (they are already reduced; the wire format's l-bit truncation is
// a bandwidth optimization the disk does not need).

var (
	segmentMagic = []byte("ABNN2SG1")
	journalMagic = []byte("ABNN2JN1")
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms this serves from.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// journalEntrySize is the fixed size of one claim-journal entry, chosen
// so torn tails are detectable by length alone.
const journalEntrySize = 20

// maxRecordBytes bounds one segment record's payload. A correlation for
// even an ImageNet-scale layer stack stays far below this; anything
// larger is a corrupt or hostile length field, rejected before
// allocation.
const maxRecordBytes = 1 << 28

// maxMatDim bounds a decoded matrix dimension, mirroring the session
// layer's batch bound: shapes beyond it cannot come from a real model.
const maxMatDim = 1 << 21

// Correlation blob tags.
const (
	kindServerHalf byte = 'S'
	kindClientHalf byte = 'C'
)

// PeerID is a party's durable 128-bit identity, generated randomly on
// first store open and persisted alongside the pools. Peer-paired
// correlations are keyed by it: a server stores its halves under the
// client's ID, a client under the server's. IDs must be unguessable —
// knowing a peer's ID (plus its correlation IDs) is what authorizes
// spending that peer's precomputed pairs; see SECURITY.md.
type PeerID [16]byte

// NoPeer is the zero PeerID. No party mints it and no scope written today
// carries it; servers before the dealer pools became memory-only
// persisted them under it, and such scopes are recovered, left untouched
// and never served.
var NoPeer PeerID

// LoopbackServer and LoopbackClient are the two ends of the in-process
// filler, the peer whose both parties live in this process. A pool under
// either is memory-only in any store: client halves wait under
// LoopbackServer (the identity an in-process client draws with), their
// server halves under LoopbackClient (the identity a 13-byte announcement
// stands for). No store mints them, and a directory that names one is
// quarantined at recovery.
var (
	LoopbackServer = PeerID([]byte("loopback-server\x00"))
	LoopbackClient = PeerID([]byte("loopback-client\x00"))
)

func (p PeerID) loopback() bool { return p == LoopbackServer || p == LoopbackClient }

// String renders the ID as 32 hex digits.
func (p PeerID) String() string { return hex.EncodeToString(p[:]) }

// ParsePeerID parses the hex form produced by String.
func ParsePeerID(s string) (PeerID, error) {
	var p PeerID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(p) {
		return p, fmt.Errorf("bank: malformed peer id %q", s)
	}
	copy(p[:], b)
	return p, nil
}

// Scope identifies one durable pool: the correlation key plus the peer
// the halves were generated with.
type Scope struct {
	Peer PeerID
	Key  Key
}

// String is the canonical scope encoding: the segment header line, the
// KEY file contents, and the input to the journal's scope hash. Round-
// trips through parseScope.
func (s Scope) String() string {
	return fmt.Sprintf("v1 peer=%s model=%s scheme=%s l=%d batch=%d backend=%s",
		s.Peer, s.Key.Model, s.Key.Scheme, s.Key.RingBits, s.Key.Batch, s.Key.Backend)
}

// valid rejects scopes whose canonical encoding would not round-trip
// (embedded whitespace) or whose key fields are out of protocol range.
func (s Scope) valid() error {
	for _, f := range []string{s.Key.Model, s.Key.Scheme, s.Key.Backend} {
		if f == "" || strings.ContainsAny(f, " \n\t") {
			return fmt.Errorf("bank: scope field %q is empty or contains whitespace", f)
		}
	}
	if s.Key.RingBits < 8 || s.Key.RingBits > 64 {
		return fmt.Errorf("bank: scope ring width %d out of range", s.Key.RingBits)
	}
	if s.Key.Batch <= 0 || s.Key.Batch > 1<<20 {
		return fmt.Errorf("bank: scope batch %d out of range", s.Key.Batch)
	}
	return nil
}

// parseScope decodes the canonical form. It accepts exactly what String
// produces; recovery treats anything else as a corrupt pool directory.
func parseScope(s string) (Scope, error) {
	var sc Scope
	fields := strings.Split(s, " ")
	if len(fields) != 7 || fields[0] != "v1" {
		return sc, fmt.Errorf("bank: malformed scope %q", s)
	}
	want := []string{"peer", "model", "scheme", "l", "batch", "backend"}
	vals := make(map[string]string, len(want))
	for i, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k != want[i] || v == "" {
			return sc, fmt.Errorf("bank: malformed scope field %q", f)
		}
		vals[k] = v
	}
	peer, err := ParsePeerID(vals["peer"])
	if err != nil {
		return sc, err
	}
	l, err := strconv.ParseUint(vals["l"], 10, 8)
	if err != nil {
		return sc, fmt.Errorf("bank: malformed scope ring width: %w", err)
	}
	batch, err := strconv.Atoi(vals["batch"])
	if err != nil {
		return sc, fmt.Errorf("bank: malformed scope batch: %w", err)
	}
	sc = Scope{Peer: peer, Key: Key{
		Model: vals["model"], Scheme: vals["scheme"],
		RingBits: uint(l), Batch: batch, Backend: vals["backend"],
	}}
	if err := sc.valid(); err != nil {
		return sc, err
	}
	return sc, nil
}

// hash returns the scope's 64-bit journal identity (a digest truncation,
// so collisions across distinct pools are negligible).
func (s Scope) hash() uint64 {
	sum := sha256.Sum256([]byte(s.String()))
	return binary.LittleEndian.Uint64(sum[:8])
}

// dirName is the scope's pool directory name: a digest truncation, so
// free-form key fields never meet the filesystem.
func (s Scope) dirName() string {
	sum := sha256.Sum256([]byte(s.String()))
	return hex.EncodeToString(sum[:8])
}

// appendSegmentHeader appends a segment file header for scope.
func appendSegmentHeader(dst []byte, scope string) []byte {
	dst = append(dst, segmentMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(scope)))
	return append(dst, scope...)
}

// appendSegmentRecord appends one framed, checksummed record: id plus a
// correlation blob.
func appendSegmentRecord(dst []byte, id uint64, blob []byte) []byte {
	payload := make([]byte, 0, 8+len(blob))
	payload = binary.LittleEndian.AppendUint64(payload, id)
	payload = append(payload, blob...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// appendJournalEntry appends one fixed-size claim entry.
func appendJournalEntry(dst []byte, scopeHash, id uint64) []byte {
	var e [journalEntrySize]byte
	binary.LittleEndian.PutUint64(e[0:8], scopeHash)
	binary.LittleEndian.PutUint64(e[8:16], id)
	binary.LittleEndian.PutUint32(e[16:20], crc32.Checksum(e[:16], crcTable))
	return append(dst, e[:]...)
}

// segRecord is one parsed segment record.
type segRecord struct {
	id   uint64
	blob []byte
}

// scanSegment parses a whole segment image. It returns the records that
// parse cleanly, the scope line from the header, and how the scan ended:
//
//   - err == nil: every byte accounted for.
//   - errTorn (with keep = the offset of the last clean record boundary):
//     the file ends mid-record — the torn tail of a crashed append.
//     Recovery truncates to keep and trusts everything before it.
//   - any other error: structural corruption (bad magic, checksum
//     mismatch on a complete record, oversized length). Recovery
//     quarantines the whole segment: a checksum failure means the disk or
//     an editor rewrote history, and no later record can be trusted.
func scanSegment(data []byte) (scope string, recs []segRecord, keep int64, err error) {
	if len(data) < len(segmentMagic)+2 {
		if incompleteHeader(data) {
			return "", nil, 0, errTorn
		}
		return "", nil, 0, fmt.Errorf("bank: segment too short for header")
	}
	if string(data[:len(segmentMagic)]) != string(segmentMagic) {
		return "", nil, 0, fmt.Errorf("bank: bad segment magic")
	}
	off := len(segmentMagic)
	scopeLen := int(binary.LittleEndian.Uint16(data[off : off+2]))
	off += 2
	if len(data)-off < scopeLen {
		return "", nil, 0, errTorn // crashed mid-header; nothing to keep
	}
	scope = string(data[off : off+scopeLen])
	off += scopeLen
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 8 {
			return scope, recs, int64(off), errTorn
		}
		plen := int(binary.LittleEndian.Uint32(rest[0:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if plen < 8 || plen > maxRecordBytes {
			return scope, recs, int64(off), fmt.Errorf("bank: segment record length %d out of range", plen)
		}
		if len(rest)-8 < plen {
			return scope, recs, int64(off), errTorn
		}
		payload := rest[8 : 8+plen]
		if crc32.Checksum(payload, crcTable) != sum {
			return scope, recs, int64(off), fmt.Errorf("bank: segment record checksum mismatch at offset %d", off)
		}
		recs = append(recs, segRecord{
			id:   binary.LittleEndian.Uint64(payload[:8]),
			blob: payload[8:],
		})
		off += 8 + plen
	}
	return scope, recs, int64(off), nil
}

// incompleteHeader reports whether data is a strict prefix of a valid
// header — a crash during the very first write, recoverable by
// truncation to empty rather than quarantine.
func incompleteHeader(data []byte) bool {
	n := len(data)
	if n > len(segmentMagic) {
		n = len(segmentMagic)
	}
	return string(data[:n]) == string(segmentMagic[:n])
}

// errTorn marks a scan that hit a torn tail (see scanSegment).
var errTorn = fmt.Errorf("bank: torn record tail")

// scanJournal parses a claim-journal image into claimed-id sets keyed by
// scope hash. The same ending contract as scanSegment applies: errTorn
// with a keep offset for a crashed append, a hard error for corruption
// that invalidates the whole journal (recovery then fails closed:
// nothing persisted is replayed).
func scanJournal(data []byte) (claims map[uint64]map[uint64]bool, keep int64, err error) {
	claims = make(map[uint64]map[uint64]bool)
	if len(data) < len(journalMagic) {
		if string(data) == string(journalMagic[:len(data)]) {
			return claims, 0, errTorn
		}
		return claims, 0, fmt.Errorf("bank: journal too short for header")
	}
	if string(data[:len(journalMagic)]) != string(journalMagic) {
		return claims, 0, fmt.Errorf("bank: bad journal magic")
	}
	off := len(journalMagic)
	for off < len(data) {
		rest := data[off:]
		if len(rest) < journalEntrySize {
			return claims, int64(off), errTorn
		}
		e := rest[:journalEntrySize]
		if crc32.Checksum(e[:16], crcTable) != binary.LittleEndian.Uint32(e[16:20]) {
			// A bad checksum in the last entry slot is a torn write; one
			// with further entries behind it is corruption.
			if len(rest) == journalEntrySize {
				return claims, int64(off), errTorn
			}
			return claims, int64(off), fmt.Errorf("bank: journal entry checksum mismatch at offset %d", off)
		}
		sh := binary.LittleEndian.Uint64(e[0:8])
		id := binary.LittleEndian.Uint64(e[8:16])
		m := claims[sh]
		if m == nil {
			m = make(map[uint64]bool)
			claims[sh] = m
		}
		m[id] = true
		off += journalEntrySize
	}
	return claims, int64(off), nil
}

// --- correlation blob codec ---

func appendMat(dst []byte, m *ring.Mat) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Rows))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Cols))
	for _, x := range m.Data {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	}
	return dst
}

func decodeMat(src []byte) (*ring.Mat, []byte, error) {
	if len(src) < 8 {
		return nil, nil, fmt.Errorf("bank: short matrix header")
	}
	rows := int(binary.LittleEndian.Uint32(src[0:4]))
	cols := int(binary.LittleEndian.Uint32(src[4:8]))
	src = src[8:]
	if rows < 0 || cols < 0 || rows > maxMatDim || cols > maxMatDim {
		return nil, nil, fmt.Errorf("bank: matrix shape %dx%d out of range", rows, cols)
	}
	need := int64(rows) * int64(cols) * 8
	if int64(len(src)) < need {
		return nil, nil, fmt.Errorf("bank: short matrix body: have %d bytes, want %d", len(src), need)
	}
	m := ring.NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = ring.Elem(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return m, src[need:], nil
}

func decodeU32(src []byte) (int, []byte, error) {
	if len(src) < 4 {
		return 0, nil, fmt.Errorf("bank: short length field")
	}
	return int(binary.LittleEndian.Uint32(src[0:4])), src[4:], nil
}

// maxLayers bounds decoded layer counts; the deepest plausible model is
// orders of magnitude below it.
const maxLayers = 1 << 16

// EncodeServerCorr serializes a server correlation half.
func EncodeServerCorr(c *core.ServerCorr) []byte {
	dst := []byte{kindServerHalf}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Batch))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.U)))
	for _, u := range c.U {
		dst = appendMat(dst, u)
	}
	return dst
}

// DecodeServerCorr parses a server half; the inverse of EncodeServerCorr.
func DecodeServerCorr(src []byte) (*core.ServerCorr, error) {
	if len(src) == 0 || src[0] != kindServerHalf {
		return nil, fmt.Errorf("bank: not a server correlation blob")
	}
	src = src[1:]
	batch, src, err := decodeU32(src)
	if err != nil {
		return nil, err
	}
	if batch <= 0 || batch > 1<<20 {
		return nil, fmt.Errorf("bank: corr batch %d out of range", batch)
	}
	n, src, err := decodeU32(src)
	if err != nil {
		return nil, err
	}
	if n > maxLayers {
		return nil, fmt.Errorf("bank: corr layer count %d out of range", n)
	}
	c := &core.ServerCorr{Batch: batch, U: make([]*ring.Mat, 0, n)}
	for i := 0; i < n; i++ {
		var m *ring.Mat
		if m, src, err = decodeMat(src); err != nil {
			return nil, fmt.Errorf("bank: server corr layer %d: %w", i, err)
		}
		c.U = append(c.U, m)
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("bank: %d trailing bytes after server corr", len(src))
	}
	return c, nil
}

// EncodeClientCorr serializes a client correlation half.
func EncodeClientCorr(c *core.ClientCorr) []byte {
	dst := []byte{kindClientHalf}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Batch))
	dst = appendMat(dst, c.R0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.V)))
	for _, v := range c.V {
		dst = appendMat(dst, v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Z1)))
	for _, z := range c.Z1 {
		if z == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = appendMat(dst, z)
	}
	return dst
}

// DecodeClientCorr parses a client half; the inverse of EncodeClientCorr.
func DecodeClientCorr(src []byte) (*core.ClientCorr, error) {
	if len(src) == 0 || src[0] != kindClientHalf {
		return nil, fmt.Errorf("bank: not a client correlation blob")
	}
	src = src[1:]
	batch, src, err := decodeU32(src)
	if err != nil {
		return nil, err
	}
	if batch <= 0 || batch > 1<<20 {
		return nil, fmt.Errorf("bank: corr batch %d out of range", batch)
	}
	c := &core.ClientCorr{Batch: batch}
	if c.R0, src, err = decodeMat(src); err != nil {
		return nil, fmt.Errorf("bank: client corr input mask: %w", err)
	}
	nv, src, err := decodeU32(src)
	if err != nil {
		return nil, err
	}
	if nv > maxLayers {
		return nil, fmt.Errorf("bank: corr layer count %d out of range", nv)
	}
	c.V = make([]*ring.Mat, 0, nv)
	for i := 0; i < nv; i++ {
		var m *ring.Mat
		if m, src, err = decodeMat(src); err != nil {
			return nil, fmt.Errorf("bank: client corr triplet %d: %w", i, err)
		}
		c.V = append(c.V, m)
	}
	nz, src, err := decodeU32(src)
	if err != nil {
		return nil, err
	}
	if nz > maxLayers {
		return nil, fmt.Errorf("bank: corr layer count %d out of range", nz)
	}
	c.Z1 = make([]*ring.Mat, nz)
	for i := 0; i < nz; i++ {
		if len(src) < 1 {
			return nil, fmt.Errorf("bank: client corr share %d: missing presence byte", i)
		}
		present := src[0]
		src = src[1:]
		switch present {
		case 0:
		case 1:
			if c.Z1[i], src, err = decodeMat(src); err != nil {
				return nil, fmt.Errorf("bank: client corr share %d: %w", i, err)
			}
		default:
			return nil, fmt.Errorf("bank: client corr share %d: bad presence byte %d", i, present)
		}
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("bank: %d trailing bytes after client corr", len(src))
	}
	return c, nil
}
