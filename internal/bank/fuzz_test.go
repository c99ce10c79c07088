package bank

import (
	"bytes"
	"strings"
	"testing"

	"abnn2/internal/core"
	"abnn2/internal/ring"
)

// Fuzz targets for the durable store's disk parsers. A store directory
// may be restored from backup, shared between operators, or tampered
// with, so the parsers must never panic, never trust a hostile length,
// and must accept exactly what the store writes.

// FuzzParseHalf fuzzes the half-file parser: arbitrary file contents
// must parse without panicking, and a file that parses is the one the
// store would write for its id and blob, byte for byte.
func FuzzParseHalf(f *testing.F) {
	half := func(id uint64, blob []byte) []byte { return append(halfHeader(id, blob), blob...) }
	s, c := fuzzCorrPair()
	small := half(7, []byte{kindServerHalf, 1, 2, 3})
	server := half(1, EncodeServerCorr(s))
	crcFlip := half(2, EncodeClientCorr(c))
	crcFlip[halfHeaderSize] ^= 0xFF // the blob's first byte, under an intact checksum
	f.Add(small)
	f.Add(server)
	f.Add(crcFlip)
	f.Add(small[:len(small)-3])       // cut short
	f.Add(half(0, nil))               // empty blob
	f.Add(small[:halfHeaderSize-1])   // torn header
	f.Add(small[:5])                  // torn magic
	f.Add([]byte("ABNN2HF1"))         // magic only
	f.Add([]byte("NOTMAGIC________")) // wrong magic, torn header
	f.Add([]byte("ABNN2SG1\x00\x00")) // an older-format segment
	f.Add([]byte{})
	f.Add(append([]byte("NOTMAGIC"), small[len(halfMagic):]...)) // wrong magic, whole file
	f.Fuzz(func(t *testing.T, data []byte) {
		id, blob, err := parseHalf(data)
		if err != nil {
			return
		}
		if len(blob) > maxRecordBytes {
			t.Fatalf("half %d blob of %d bytes exceeds bound", id, len(blob))
		}
		if !bytes.Equal(half(id, blob), data) {
			t.Fatalf("parsed half %d does not re-encode to its file", id)
		}
	})
}

// FuzzParseHalfName fuzzes the names and the SCOPE files recovery reads
// from a pool directory: arbitrary strings must parse without panicking,
// and whatever parses as a half name or a scope is the canonical form
// halfName or Scope.String writes, so no two spellings name one half or
// one pool.
func FuzzParseHalfName(f *testing.F) {
	scope := testScope(PeerID{0xAB})
	f.Add([]byte(halfName(1, 0xdeadbeef)))
	f.Add([]byte(halfName(1, 0xdeadbeef) + tmpSuffix))
	f.Add([]byte("0000000000000001-DEADBEEF00000000")) // upper-case hex
	f.Add([]byte("1-2"))                               // not fixed-width
	f.Add([]byte(scope.String()))
	f.Add([]byte(strings.Replace(scope.String(), "l=32", "l=7", 1)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		name := string(data)
		if seq, id, ok := parseHalfName(name); ok && halfName(seq, id) != name {
			t.Fatalf("half name %q parses to (%d, %x), which is named %q", name, seq, id, halfName(seq, id))
		}
		if sc, err := parseScope(name); err == nil && sc.String() != name {
			t.Fatalf("scope %q parses to %q", name, sc.String())
		}
	})
}

// fuzzCorrPair builds a small but structurally complete correlation
// pair: two layers, a nil Z1 slot, non-trivial ring values.
func fuzzCorrPair() (*core.ServerCorr, *core.ClientCorr) {
	mat := func(rows, cols int, base uint64) *ring.Mat {
		m := ring.NewMat(rows, cols)
		for i := range m.Data {
			m.Data[i] = ring.Elem(base + uint64(i))
		}
		return m
	}
	s := &core.ServerCorr{Batch: 2, U: []*ring.Mat{mat(3, 2, 10), mat(2, 2, 90)}}
	c := &core.ClientCorr{
		Batch: 2,
		R0:    mat(3, 2, 7),
		V:     []*ring.Mat{mat(3, 2, 40), mat(2, 2, 50)},
		Z1:    []*ring.Mat{nil, mat(2, 2, 60)},
	}
	return s, c
}

// FuzzDecodeCorr: arbitrary correlation blobs must decode without
// panicking, and any blob that decodes must re-encode byte-identically
// (the codec is canonical — this is what makes the disk round trip of a
// peer-paired correlation bit-exact).
func FuzzDecodeCorr(f *testing.F) {
	s, c := fuzzCorrPair()
	sb, cb := EncodeServerCorr(s), EncodeClientCorr(c)
	f.Add(sb)
	f.Add(cb)
	f.Add(sb[:len(sb)-3]) // truncated matrix body
	f.Add(cb[:len(cb)-1]) // truncated Z1 tail
	f.Add([]byte{kindServerHalf})
	f.Add([]byte{kindClientHalf, 2, 0, 0, 0})
	f.Add([]byte{'P', 0xFF, 0xFF, 0xFF, 0xFF}) // the retired dealer-pair tag
	f.Add([]byte{'X'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any error is acceptable; panics and OOM are not.
		var round []byte
		if s, err := DecodeServerCorr(data); err == nil {
			round = EncodeServerCorr(s)
		} else if c, err := DecodeClientCorr(data); err == nil {
			round = EncodeClientCorr(c)
		} else {
			return
		}
		if !bytes.Equal(round, data) {
			t.Fatalf("decode/encode round trip not canonical: %d bytes in, %d out",
				len(data), len(round))
		}
	})
}
