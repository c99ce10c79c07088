// Command gencorpus regenerates the checked-in seed corpora for the
// wire-parser fuzz targets (testdata/fuzz/<Target>/ in each package).
// The corpora encode protocol knowledge the coverage-guided mutator
// would otherwise have to rediscover: exact valid frame lengths for
// every parser, the off-by-one neighbours, and structured fills that
// exercise non-trivial decode paths (set high bits for ring
// canonicality checks, curve points for base OT). Run from the repo
// root after changing any wire format:
//
//	go run ./internal/testkit/gencorpus
package main

import (
	"crypto/elliptic"
	"fmt"
	"math/big"
	"os"
	"path/filepath"

	"abnn2/internal/bank"
	"abnn2/internal/baseot"
	"abnn2/internal/core"
	"abnn2/internal/gc"
	"abnn2/internal/paillier"
	"abnn2/internal/plan"
	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// entry is one corpus file: a sequence of fuzz arguments, all []byte.
type entry [][]byte

func writeCorpus(dir string, entries []entry) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	for i, e := range entries {
		var buf []byte
		buf = append(buf, "go test fuzz v1\n"...)
		for _, arg := range e {
			buf = append(buf, fmt.Sprintf("[]byte(%q)\n", arg)...)
		}
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, buf, 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%s: %d entries\n", dir, len(entries))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gencorpus:", err)
	os.Exit(1)
}

// fills returns single-argument entries around a parser's valid frame
// length: exact, both off-by-one neighbours, empty, and patterned fills
// that survive the length check and reach the decode logic.
func fills(valid int, g *prg.PRG) []entry {
	ff := make([]byte, valid)
	hi := make([]byte, valid)
	for i := range ff {
		ff[i] = 0xFF
		hi[i] = 0x80
	}
	out := []entry{
		{make([]byte, valid)},
		{ff},
		{hi},
		{g.Bytes(valid)},
		{[]byte{}},
	}
	if valid > 0 {
		out = append(out, entry{make([]byte, valid-1)}, entry{make([]byte, valid+1)})
	}
	return out
}

func main() {
	g := prg.New(prg.SeedFromInt(0xC0))

	// internal/otext: u-matrix for WH(16)/m=8 is 240 bytes (240 columns
	// of one byte); 1-of-4 chosen cts at msgLen 4 are 64 bytes; COT
	// corrections for 3 OTs over the 33-bit ring are 15 bytes.
	writeCorpus("internal/otext/testdata/fuzz/FuzzSenderExtend", fills(240, g))
	g.Bytes(16) // the u-matrix was 256 bytes wide in wire v1: every later corpus keeps its bytes
	writeCorpus("internal/otext/testdata/fuzz/FuzzRecvChosen", fills(64, g))
	writeCorpus("internal/otext/testdata/fuzz/FuzzRecvCorrelatedRing", fills(15, g))

	// internal/gc: garbled-material flight for BatchReLUCircuit(4, 2).
	relu := gc.BatchReLUCircuit(4, 2)
	want := relu.TableBytes() + relu.NumGarbler*gc.LabelSize +
		(len(relu.Outputs)+7)/8 + relu.NumEvaluator*2*gc.LabelSize
	writeCorpus("internal/gc/testdata/fuzz/FuzzEvaluatorRun", fills(want, g))
	sign := gc.BatchSignCircuit(8, 1)
	var evalEntries []entry
	for _, e := range fills(sign.TableBytes(), g) {
		evalEntries = append(evalEntries, entry{e[0], g.Bytes(2 * gc.LabelSize)})
	}
	writeCorpus("internal/gc/testdata/fuzz/FuzzEvaluate", evalEntries)
	// Gate programs for the kernel-vs-reference identity fuzz (two bytes
	// of input counts, then kind/operand/operand triples; kinds 2 and 3
	// are INV). These draw nothing from g, so they move no other corpus.
	invChain := []byte{3, 3}
	for i := 0; i < 150; i++ {
		invChain = append(invChain, 2, byte(i+7), 0) // invert the newest wire
	}
	for i := 0; i < 40; i++ {
		invChain = append(invChain, 1, byte(3*i), byte(5*i+1)) // AND across the chain
	}
	mixed := []byte{2, 1}
	for i := 0; i < 250; i++ {
		mixed = append(mixed, byte(i%4), byte(7*i+3), byte(11*i+5))
	}
	andOfInv := []byte{0, 0}
	for i := 0; i < 80; i++ {
		andOfInv = append(andOfInv, 3, byte(i), 0, 1, byte(2*i+1), byte(2*i+2), 0, byte(3*i), byte(3*i+1))
	}
	writeCorpus("internal/gc/testdata/fuzz/FuzzGarbleMatchesReference", []entry{
		{invChain, {0xA5, 0x3C}},
		{mixed, {0x01, 0xFE, 0x77, 0x10, 0x9B, 0x42, 0xC3, 0x5A, 0xE1}},
		{andOfInv, {0xFF}},
		{[]byte{3, 3}, []byte{}},
	})

	// internal/core: triplet payloads for shape 2x3 over 4(2,2) and the
	// 33-bit ring — 12 OTs of (N-1)*5 bytes one-batch, N*o*5 multi-batch.
	writeCorpus("internal/core/testdata/fuzz/FuzzTripletPayloadOneBatch", fills(12*3*5, g))
	writeCorpus("internal/core/testdata/fuzz/FuzzTripletPayloadMultiBatch", fills(12*4*2*5, g))

	// internal/baseot: point flights over P-256 (65-byte uncompressed
	// points). Valid points matter: random 65-byte strings are almost
	// never on the curve, so seed real multiples of the generator.
	curve := elliptic.P256()
	points := make([][]byte, 4)
	for i := range points {
		x, y := curve.ScalarBaseMult([]byte{byte(i + 1)})
		points[i] = elliptic.Marshal(curve, x, y)
	}
	recvEntries := []entry{
		{points[0], make([]byte, 64)},
		{points[1], g.Bytes(64)},
		{points[2], make([]byte, 63)},
		{make([]byte, 65), make([]byte, 64)},
		{[]byte{}, []byte{}},
	}
	writeCorpus("internal/baseot/testdata/fuzz/FuzzReceive", recvEntries)
	pair := func(p, q []byte) entry { return entry{append(append([]byte{}, p...), q...)} }
	sendEntries := []entry{
		pair(points[0], points[1]),
		pair(points[2], points[3]),
		{make([]byte, 130)},
		{g.Bytes(130)},
		{[]byte{}},
	}
	writeCorpus("internal/baseot/testdata/fuzz/FuzzSend", sendEntries)
	// FuzzSendMatchesReference: the B flights on which the sender's
	// a*B_i - a*A and the reference's a*(B_i - A) take different special
	// cases of the group law. A is what the target's sender (seed 8)
	// announces, read off a sender of zero OTs: B_i = A makes k1 the
	// identity, B_i = -A makes the sender's addition a doubling.
	pa, pb := transport.Pipe()
	_ = pa.Send(nil) // the empty B flight; a fresh pipe buffers it
	if err := baseot.Send(pb, nil, prg.New(prg.SeedFromInt(8))); err != nil {
		fatal(err)
	}
	A, err := pa.Recv()
	if err != nil {
		fatal(err)
	}
	ax, ay := elliptic.Unmarshal(curve, A)
	negA := elliptic.Marshal(curve, ax, new(big.Int).Sub(curve.Params().P, ay))
	writeCorpus("internal/baseot/testdata/fuzz/FuzzSendMatchesReference", []entry{
		pair(A, A),
		pair(negA, negA),
		pair(A, negA),
		pair(points[0], A),
		pair(points[1], points[1]),
		pair(points[2], make([]byte, 65)),
	})

	// internal/paillier: the fuzz target's key is GenerateKey(seed 1,
	// 512), the package test key. Seed real ciphertexts plus the two
	// classic non-units (0 and N) at the exact wire width.
	sk, err := paillier.GenerateKey(prg.New(prg.SeedFromInt(1)), 512)
	if err != nil {
		fatal(err)
	}
	pk := &sk.PublicKey
	ctBytes := pk.CiphertextBytes()
	var pailEntries []entry
	for _, m := range []int64{0, 1, 1 << 40} {
		ct, err := pk.Encrypt(g, big.NewInt(m))
		if err != nil {
			fatal(err)
		}
		pailEntries = append(pailEntries, entry{pk.Marshal(ct)})
	}
	pailEntries = append(pailEntries,
		entry{make([]byte, ctBytes)},
		entry{pk.N.FillBytes(make([]byte, ctBytes))},
		entry{new(big.Int).Mul(pk.N, big.NewInt(3)).FillBytes(make([]byte, ctBytes))},
		entry{g.Bytes(ctBytes)},
	)
	writeCorpus("internal/paillier/testdata/fuzz/FuzzUnmarshalCiphertext", pailEntries)

	// internal/bank: the durable store's disk parsers. Seed whole valid
	// images (header + records / header + entries), their torn and
	// corrupted neighbours, and canonical correlation blobs — the
	// structured prefixes the mutator needs to reach the deep decode
	// paths (CRC check, matrix shape bounds, Z1 presence bytes).
	mat := func(rows, cols int, base uint64) *ring.Mat {
		m := ring.NewMat(rows, cols)
		for i := range m.Data {
			m.Data[i] = ring.Elem(base + uint64(i))
		}
		return m
	}
	scorr := &core.ServerCorr{Batch: 2, U: []*ring.Mat{mat(3, 2, 10), mat(2, 2, 90)}}
	ccorr := &core.ClientCorr{Batch: 2, R0: mat(3, 2, 7),
		V:  []*ring.Mat{mat(3, 2, 40), mat(2, 2, 50)},
		Z1: []*ring.Mat{nil, mat(2, 2, 60)}}
	scope := bank.Scope{Key: bank.Key{Model: "seed", Scheme: "4(2,2)",
		RingBits: 32, Batch: 2, Backend: "corpus"}}
	seg := bank.AppendSegmentHeader(nil, scope.String())
	hdrLen := len(seg)
	seg = bank.AppendSegmentRecord(seg, 1, bank.EncodeServerCorr(scorr))
	seg = bank.AppendSegmentRecord(seg, 2, bank.EncodeClientCorr(ccorr))
	crcFlip := append([]byte{}, seg...)
	crcFlip[hdrLen+8] ^= 0xFF // corrupt the first record's payload
	segEntries := []entry{
		{seg},
		{seg[:len(seg)-5]},  // torn record tail
		{seg[:hdrLen]},      // header only
		{seg[:hdrLen-3]},    // torn header
		{crcFlip},           // complete record, bad checksum
		{g.Bytes(len(seg))}, // noise at the valid length
		{[]byte{}},
	}
	writeCorpus("internal/bank/testdata/fuzz/FuzzScanSegment", segEntries)

	jn := append([]byte{}, "ABNN2JN1"...)
	jn = bank.AppendJournalEntry(jn, 0xAB, 1)
	jn = bank.AppendJournalEntry(jn, 0xCD, 2)
	jn = bank.AppendJournalEntry(jn, 0xAB, 3)
	jnFlip := append([]byte{}, jn...)
	jnFlip[len("ABNN2JN1")+4] ^= 0xFF // corrupt the first entry mid-file
	jnEntries := []entry{
		{jn},
		{jn[:len(jn)-7]}, // torn last entry
		{jn[:8]},         // header only
		{jn[:5]},         // torn header
		{jnFlip},
		{g.Bytes(len(jn))},
		{[]byte{}},
	}
	writeCorpus("internal/bank/testdata/fuzz/FuzzScanJournal", jnEntries)

	sb := bank.EncodeServerCorr(scorr)
	cb := bank.EncodeClientCorr(ccorr)
	corrEntries := []entry{
		{sb}, {cb},
		{sb[:len(sb)-3]}, // truncated matrix body
		{cb[:len(cb)-1]}, // truncated Z1 tail
		// The length of the retired dealer-pair blob ('P' | u32 | server |
		// client), so every later draw from g is unchanged.
		{g.Bytes(5 + len(sb) + len(cb))},
		{[]byte{}},
	}
	writeCorpus("internal/bank/testdata/fuzz/FuzzDecodeCorr", corrEntries)

	// internal/plan: the plan frame the client's announcement carries.
	// Seed valid frames (mixed backends, scheme override, the one-layer
	// minimum) and the exact rejection boundaries the parser enforces:
	// zero and over-MaxLayers counts, an unknown backend id, an over-long
	// scheme claim, a truncated scheme body, and trailing bytes.
	mixedPlan := &plan.Plan{Layers: []plan.Choice{
		{Backend: core.BackendABNN2, Scheme: "8(2,2,2,2)"},
		{Backend: core.BackendMiniONN},
		{Backend: core.BackendSecureML},
	}}
	onePlan := plan.Uniform(core.BackendQuotient, 1)
	bigPlan := plan.Uniform(core.BackendABNN2, plan.MaxLayers)
	badBackend := append([]byte{}, onePlan.Marshal()...)
	badBackend[6] = 0xEE // backend byte of layer 0
	longScheme := append([]byte{}, onePlan.Marshal()...)
	longScheme[7] = plan.MaxSchemeName + 1 // scheme-length byte of layer 0
	tornScheme := mixedPlan.Marshal()
	tornScheme = tornScheme[:len(tornScheme)-3]
	zeroCount := []byte("ABP1\x00\x00")
	overCount := []byte("ABP1\xff\xff")
	planEntries := []entry{
		{mixedPlan.Marshal()},
		{onePlan.Marshal()},
		{bigPlan.Marshal()},
		{badBackend},
		{longScheme},
		{tornScheme},
		{zeroCount},
		{overCount},
		{append(onePlan.Marshal(), 0x00)}, // trailing byte
		{g.Bytes(len(mixedPlan.Marshal()))},
		{[]byte{}},
	}
	writeCorpus("internal/plan/testdata/fuzz/FuzzUnmarshalPlan", planEntries)

	// Pad deriver: a KK13-shaped query — 26 header bytes (session, index,
	// tweak, output length) and one 32-byte row — so mutation starts on
	// the path every triplet OT takes. Drawn after everything above: g's
	// earlier output feeds those corpora.
	writeCorpus("internal/prg/testdata/fuzz/FuzzPadDeriverMatchesHash", []entry{{g.Bytes(26), g.Bytes(32)}})

	// Root package: the session layer's control frames (frames.go). One
	// valid frame per layout and kind, then each length's neighbours and
	// fills, which cover batch 0, batch > 1<<20 and the unknown mode bits;
	// the store bit on its one layout and on the ones it is refused on.
	// Drawn last of all, for the same reason.
	inline := []byte{2, 0, 0, 0, 0x01}                          // batch 2, argmax
	dealer := append([]byte{1, 0, 0, 0, 0x02}, g.Bytes(8)...)   // batch 1, plan follows
	peered := append([]byte{0, 0, 16, 0, 0x03}, g.Bytes(24)...) // batch 1<<20, both bits
	annEntries := []entry{{inline}, {dealer}, {peered},
		{[]byte{1, 0, 16, 0, 0}}, // batch 1<<20 + 1
		{[]byte{1, 0, 0, 0, 8}},  // first unknown mode bit
	}
	for _, n := range []int{len(inline), len(dealer), len(peered)} {
		annEntries = append(annEntries, fills(n, g)...)
	}
	store := append([]byte{4, 0, 0, 0, 0x04}, g.Bytes(24)...) // batch 4, store
	annEntries = append(annEntries, entry{store},
		entry{append([]byte{4, 0, 0, 0, 0x06}, store[5:]...)}, // store, plan follows
		entry{append([]byte{4, 0, 0, 0, 0x05}, store[5:]...)}, // store with argmax
		entry{store[:13]}, // store on the loopback layout
		entry{store[:5]},  // store on the inline layout
	)
	writeCorpus("testdata/fuzz/FuzzParseAnnouncement", annEntries)

	// The replies to a store announcement: each kind at its one length and
	// that length's neighbours, then what is no reply at all — the frames a
	// client sent in the offline sessions this exchange replaced included.
	var offEntries []entry
	for _, kind := range []byte{'G', 'N', 'A'} {
		reply := append([]byte{kind}, g.Bytes(8)...)
		offEntries = append(offEntries, entry{reply}, entry{reply[:8]}, entry{append(reply, 0)})
	}
	req := append(append([]byte{'R'}, g.Bytes(8)...), 4, 0, 0, 0)
	offEntries = append(offEntries, entry{req}, entry{req[:9]}, entry{[]byte{'D'}}, entry{[]byte{'G'}},
		entry{append([]byte{'X'}, g.Bytes(8)...)}, entry{make([]byte, 9)}, entry{[]byte{}})
	writeCorpus("testdata/fuzz/FuzzParseOfflineFrame", offEntries)
}
