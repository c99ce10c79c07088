package bank

import (
	"bytes"
	"slices"
	"testing"

	"abnn2/internal/core"
	"abnn2/internal/ring"
)

// Fuzz targets for the durable store's disk parsers. A store directory
// may be restored from backup, shared between operators, or tampered
// with, so the parsers must never panic, never allocate from a hostile
// length field, and must report torn tails with an in-bounds keep
// offset (recovery truncates to it).

// FuzzScanSegment: arbitrary segment images must scan without panicking,
// and a torn-tail verdict must carry a keep offset recovery can truncate
// to safely.
func FuzzScanSegment(f *testing.F) {
	scope := Scope{Key: Key{Model: "m", Scheme: "4(2,2)", RingBits: 32,
		Batch: 2, Backend: "fuzz"}}
	hdr := slices.Clip(appendSegmentHeader(nil, scope.String()))
	img := appendSegmentRecord(hdr, 7, []byte{kindServerHalf, 1, 2, 3})
	// Two records carrying real correlation blobs, then the same image with
	// the first payload corrupted under an intact length field.
	s, c := fuzzCorrPair()
	full := appendSegmentRecord(appendSegmentRecord(hdr, 1, EncodeServerCorr(s)), 2, EncodeClientCorr(c))
	crcFlip := append([]byte{}, full...)
	crcFlip[len(hdr)+8] ^= 0xFF
	f.Add(img)
	f.Add(full)
	f.Add(crcFlip)
	f.Add(img[:len(img)-3])             // torn record tail
	f.Add(hdr)                          // header only
	f.Add(hdr[:len(hdr)-3])             // torn scope line
	f.Add(img[:5])                      // torn header
	f.Add([]byte("ABNN2SG1"))           // header magic only
	f.Add([]byte("NOTMAGIC________"))   // wrong magic
	f.Add(appendSegmentHeader(nil, "")) // empty scope line
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, recs, keep, err := scanSegment(data)
		if err == errTorn {
			if keep < 0 || keep > int64(len(data)) {
				t.Fatalf("torn keep offset %d out of [0, %d]", keep, len(data))
			}
			// Everything before the tear must scan cleanly after truncation.
			if keep > 0 {
				if _, _, _, err2 := scanSegment(data[:keep]); err2 != nil {
					t.Fatalf("truncated-to-keep image still fails: %v", err2)
				}
			}
		}
		for _, r := range recs {
			if len(r.blob) > maxRecordBytes {
				t.Fatalf("record %d blob of %d bytes exceeds bound", r.id, len(r.blob))
			}
		}
	})
}

// FuzzScanJournal: arbitrary journal images must scan without panicking;
// the torn-tail contract mirrors the segment scanner's.
func FuzzScanJournal(f *testing.F) {
	img := append([]byte{}, journalMagic...)
	img = appendJournalEntry(img, 0xAB, 1)
	img = appendJournalEntry(img, 0xCD, 2)
	img = appendJournalEntry(img, 0xAB, 3)
	midFlip := append([]byte{}, img...)
	midFlip[len(journalMagic)+4] ^= 0xFF // the first of three entries
	f.Add(img)
	f.Add(midFlip)
	f.Add(img[:len(img)-journalEntrySize/2]) // torn last entry
	f.Add(append([]byte{}, journalMagic...))
	f.Add([]byte("ABNN2JN"))  // torn header
	f.Add([]byte("XXNN2JN1")) // wrong magic
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		claims, keep, err := scanJournal(data)
		if err == errTorn {
			if keep < 0 || keep > int64(len(data)) {
				t.Fatalf("torn keep offset %d out of [0, %d]", keep, len(data))
			}
			if keep > 0 {
				if _, _, err2 := scanJournal(data[:keep]); err2 != nil {
					t.Fatalf("truncated-to-keep journal still fails: %v", err2)
				}
			}
		}
		if err == nil {
			// A clean scan accounts for every byte in whole entries.
			n := 0
			for _, ids := range claims {
				n += len(ids)
			}
			if want := int64(len(journalMagic) + n*journalEntrySize); keep != want && n > 0 {
				// Duplicate entries collapse in the map; keep only has to be
				// entry-aligned and in bounds.
				if (keep-int64(len(journalMagic)))%journalEntrySize != 0 {
					t.Fatalf("clean scan ended off an entry boundary: keep=%d", keep)
				}
			}
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
