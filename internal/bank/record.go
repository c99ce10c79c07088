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
// Half file, one per stored half, named <seq>-<id> (16 hex digits each)
// in its pool directory:
//
//	"ABNN2HF1" | u32 crc32c(id | blob) | u64 correlation id | corr blob
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

var halfMagic = []byte("ABNN2HF1")

// halfHeaderSize is the bytes of a half file ahead of its blob.
const halfHeaderSize = 8 + 4 + 8

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms this serves from.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxRecordBytes bounds one stored blob. A correlation for even an
// ImageNet-scale layer stack stays far below this; a half file holding
// more is a corrupt or hostile one, which readHalf refuses from its size
// before reading it.
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

// String is the canonical scope encoding: the SCOPE file's contents and
// the input to the scope's digests. Round-trips through parseScope.
func (s Scope) String() string {
	return fmt.Sprintf("v1 peer=%s model=%s scheme=%s l=%d batch=%d backend=%s",
		s.Peer, s.Key.Model, s.Key.Scheme, s.Key.RingBits, s.Key.Batch, s.Key.Backend)
}

// valid rejects scopes whose canonical encoding would not round-trip
// (embedded whitespace, or a SCOPE line longer than readFileMax reads
// back) or whose key fields are out of protocol range.
func (s Scope) valid() error {
	for _, f := range []string{s.Key.Model, s.Key.Scheme, s.Key.Backend} {
		if f == "" || len(f) > maxLineBytes/4 || strings.ContainsAny(f, " \n\t") {
			return fmt.Errorf("bank: scope field %.40q is empty, too long or contains whitespace", f)
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

// hash returns the scope's 64-bit identity in a store's pool map (a digest
// truncation, so collisions across distinct pools are negligible).
func (s Scope) hash() uint64 {
	sum := sha256.Sum256([]byte(s.String()))
	return binary.LittleEndian.Uint64(sum[:8])
}

// dirName is the scope digest: the pool directory's name and what a
// "bank claim" log line names the pool by. A digest truncation, so
// free-form key fields never meet the filesystem.
func (s Scope) dirName() string {
	sum := sha256.Sum256([]byte(s.String()))
	return hex.EncodeToString(sum[:8])
}

// halfHeader returns the header of the half file holding blob under id.
func halfHeader(id uint64, blob []byte) []byte {
	hdr := append(make([]byte, 0, halfHeaderSize), halfMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, id)
	sum := crc32.Update(crc32.Checksum(hdr[12:], crcTable), crcTable, blob)
	binary.LittleEndian.PutUint32(hdr[8:12], sum)
	return hdr
}

// parseHalf checks a half file's magic and checksum and returns the id
// and blob it holds; readHalf has already refused a file longer than
// maxRecordBytes of blob. Any error means the file is not a half this
// store wrote whole: recovery quarantines it.
func parseHalf(data []byte) (id uint64, blob []byte, err error) {
	switch {
	case len(data) < halfHeaderSize:
		return 0, nil, fmt.Errorf("bank: half file of %d bytes is shorter than its header", len(data))
	case string(data[:len(halfMagic)]) != string(halfMagic):
		return 0, nil, fmt.Errorf("bank: bad half file magic")
	case crc32.Checksum(data[12:], crcTable) != binary.LittleEndian.Uint32(data[8:12]):
		return 0, nil, fmt.Errorf("bank: half file checksum mismatch")
	}
	return binary.LittleEndian.Uint64(data[12:20]), data[halfHeaderSize:], nil
}

// halfName is the file name of the half with sequence number seq and id:
// fixed-width, so a directory listing's name order is sequence order.
func halfName(seq, id uint64) string { return fmt.Sprintf("%016x-%016x", seq, id) }

// parseHalfName is the inverse of halfName. It accepts exactly what
// halfName produces; recovery quarantines any other name.
func parseHalfName(name string) (seq, id uint64, ok bool) {
	s, i, found := strings.Cut(name, "-")
	if !found {
		return 0, 0, false
	}
	seq, err1 := strconv.ParseUint(s, 16, 64)
	id, err2 := strconv.ParseUint(i, 16, 64)
	return seq, id, err1 == nil && err2 == nil && halfName(seq, id) == name
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
