package gc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"abnn2/internal/prg"
)

// LabelSize is the wire-label width in bytes (kappa = 128 bits).
const LabelSize = 16

// Label is a wire label in its wire encoding.
type Label [LabelSize]byte

// wire is a label as the kernels hold it: the two little-endian 64-bit
// words of its Label encoding, so that XOR, the permute bit and the hash
// are word operations with no 16-byte copies.
type wire struct{ lo, hi uint64 }

func loadWire(b []byte) wire {
	_ = b[LabelSize-1]
	return wire{binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint64(b[8:16])}
}

func (w wire) store(b []byte) {
	_ = b[LabelSize-1]
	binary.LittleEndian.PutUint64(b[0:8], w.lo)
	binary.LittleEndian.PutUint64(b[8:16], w.hi)
}

func (w wire) label() (l Label) {
	w.store(l[:])
	return l
}

func (w wire) xor(o wire) wire { return wire{w.lo ^ o.lo, w.hi ^ o.hi} }

// lsb is the point-and-permute bit: bit 0 of the label's first byte.
func (w wire) lsb() uint64 { return w.lo & 1 }

// when returns w if bit is 1 and the zero label if bit is 0, without a
// branch: permute bits are uniformly random, so a branch on one is
// mispredicted half the time.
func (w wire) when(bit uint64) wire { return wire{w.lo & -bit, w.hi & -bit} }

// mmoCipher is the fixed-key AES permutation behind the garbling hash.
var mmoCipher = func() cipher.Block {
	sum := sha256.Sum256([]byte("abnn2/gc/halfgates"))
	c, err := aes.NewCipher(sum[:16])
	if err != nil {
		panic(err) // impossible: fixed key length
	}
	return c
}()

// hasher computes the garbling hash H(label, tweak), instantiated as the
// standard fixed-key AES MMO construction pi(x) XOR x with the tweak
// folded into the input (JustGarble / half-gates paper instantiation).
// The AES operands live in the struct so the hot loop performs no
// allocations (slices passed through the cipher.Block interface would
// otherwise escape to the heap on every call).
//
// An AND gate's hashes are one staged call: store every operand, issue
// the Encrypt calls back to back, then load every result. Calls that
// share one operand/result pair serialise on it; with a pair per call the
// core overlaps them (four calls: ~74 vs ~36 ns). The stages are
// unrolled: a loop over the buffers reads slower.
type hasher struct {
	x, e [4][16]byte
}

// hash4 returns the garbler's four hashes of an AND gate, computed in
// this order: H(a0, tweak), H(a1, tweak), H(b0, tweak+1), H(b1, tweak+1).
func (h *hasher) hash4(a0, a1, b0, b1 wire, tweak uint64) (wire, wire, wire, wire) {
	a0.lo ^= tweak
	a1.lo ^= tweak
	b0.lo ^= tweak + 1
	b1.lo ^= tweak + 1
	a0.store(h.x[0][:])
	a1.store(h.x[1][:])
	b0.store(h.x[2][:])
	b1.store(h.x[3][:])
	mmoCipher.Encrypt(h.e[0][:], h.x[0][:])
	mmoCipher.Encrypt(h.e[1][:], h.x[1][:])
	mmoCipher.Encrypt(h.e[2][:], h.x[2][:])
	mmoCipher.Encrypt(h.e[3][:], h.x[3][:])
	return loadWire(h.e[0][:]).xor(a0), loadWire(h.e[1][:]).xor(a1),
		loadWire(h.e[2][:]).xor(b0), loadWire(h.e[3][:]).xor(b1)
}

// hash2 returns the evaluator's two hashes of an AND gate, H(a, tweak)
// and H(b, tweak+1), in that order.
func (h *hasher) hash2(a, b wire, tweak uint64) (wire, wire) {
	a.lo ^= tweak
	b.lo ^= tweak + 1
	a.store(h.x[0][:])
	b.store(h.x[1][:])
	mmoCipher.Encrypt(h.e[0][:], h.x[0][:])
	mmoCipher.Encrypt(h.e[1][:], h.x[1][:])
	return loadWire(h.e[0][:]).xor(a), loadWire(h.e[1][:]).xor(b)
}

// Garbled is the garbler's output: everything the evaluator needs except
// the evaluator's own input labels (those are transferred by OT).
type Garbled struct {
	Tables        []byte  // 2 * LabelSize bytes per AND gate, in gate order
	GarblerLabels []Label // active labels for the garbler's inputs
	Decode        []byte  // one permute bit per output wire
	// Evaluator input label pairs, kept by the garbler for the OTs.
	EvalPairs [][2]Label
}

// garbling is the garbling kernel's state and scratch: after garble
// returns, r and zero hold the global offset and the zero label of every
// wire, from which the caller reads input labels and decode bits in
// whatever layout it needs. One garbling serves one goroutine; reusing it
// from circuit to circuit reuses the wire-label array, the kernel's only
// large allocation.
type garbling struct {
	h     hasher
	r     wire   // free-XOR global offset, lsb 1
	zero  []wire // zero label of every wire of the circuit last garbled
	stage []byte // keystream staging for the input-label draw
}

// labelStage is how much keystream garble draws at a time.
const labelStage = 8 << 10

// garble garbles c under fresh randomness from rng into tables, which
// must be c.TableBytes() long. Free-XOR with global offset R (lsb 1),
// half-gates for AND, INV by XORing the output-wire semantics with R.
//
// The draw order is the wire format's: R, then the zero label of every
// input wire in wire order, LabelSize bytes each. The keystream is a
// stream, so drawing it a stage at a time yields the same labels, and
// leaves rng in the same state, as one draw per label.
func (s *garbling) garble(c *Circuit, rng *prg.PRG, tables []byte) error {
	if s.stage == nil {
		s.stage = make([]byte, labelStage)
	}
	if cap(s.zero) < c.NumWires {
		s.zero = make([]wire, c.NumWires)
	}
	s.zero = s.zero[:c.NumWires]
	zero := s.zero
	rng.Fill(s.stage[:LabelSize])
	r := loadWire(s.stage)
	r.lo |= 1 // point-and-permute: lsb of R must be 1
	s.r = r
	for in := zero[:c.NumGarbler+c.NumEvaluator]; len(in) > 0; {
		buf := s.stage[:min(len(in)*LabelSize, labelStage)]
		rng.Fill(buf)
		for i := 0; i < len(buf); i += LabelSize {
			in[i/LabelSize] = loadWire(buf[i:])
		}
		in = in[len(buf)/LabelSize:]
	}

	h := &s.h
	var tweak uint64 // 2 * AND-gate index; the evaluator half-gate uses tweak+1
	for i := range c.Gates {
		g := &c.Gates[i]
		switch g.Kind {
		case GateXOR:
			zero[g.Out] = zero[g.A].xor(zero[g.B])
		case GateINV:
			// NOT flips semantics: label for "out=0" is label for "a=1".
			zero[g.Out] = zero[g.A].xor(r)
		case GateAND:
			a0, b0 := zero[g.A], zero[g.B]
			pa, pb := a0.lsb(), b0.lsb()
			// Four hashes: each of H(a0), H(b0) feeds both its half-gate's
			// ciphertext and its output label.
			ha0, ha1, hb0, hb1 := h.hash4(a0, a0.xor(r), b0, b0.xor(r), tweak)
			// Generator half-gate.
			tg := ha0.xor(ha1).xor(r.when(pb))
			wg := ha0.xor(tg.when(pa))
			// Evaluator half-gate.
			te := hb0.xor(hb1).xor(a0)
			we := hb0.xor(te.xor(a0).when(pb))
			zero[g.Out] = wg.xor(we)
			tg.store(tables[tweak*LabelSize:])
			te.store(tables[(tweak+1)*LabelSize:])
			tweak += 2
		default:
			return fmt.Errorf("gc: unknown gate kind %d", g.Kind)
		}
	}
	return nil
}

// garblerLabel returns the active label of garbler input wire i for the
// given input bit.
func (s *garbling) garblerLabel(i int, bit byte) wire {
	return s.zero[i].xor(s.r.when(uint64(bit & 1)))
}

// Garble garbles the circuit under fresh randomness from rng, with the
// garbler's input bits given.
func Garble(c *Circuit, garblerBits []byte, rng *prg.PRG) (*Garbled, error) {
	if len(garblerBits) != c.NumGarbler {
		return nil, fmt.Errorf("gc: %d garbler bits for %d input wires", len(garblerBits), c.NumGarbler)
	}
	out := &Garbled{
		Tables:        make([]byte, c.TableBytes()),
		GarblerLabels: make([]Label, c.NumGarbler),
		Decode:        make([]byte, len(c.Outputs)),
		EvalPairs:     make([][2]Label, c.NumEvaluator),
	}
	var s garbling
	if err := s.garble(c, rng, out.Tables); err != nil {
		return nil, err
	}
	for i := range out.GarblerLabels {
		out.GarblerLabels[i] = s.garblerLabel(i, garblerBits[i]).label()
	}
	for i := range out.EvalPairs {
		z := s.zero[c.NumGarbler+i]
		out.EvalPairs[i] = [2]Label{z.label(), z.xor(s.r).label()}
	}
	for i, w := range c.Outputs {
		out.Decode[i] = byte(s.zero[w].lsb())
	}
	return out, nil
}

// evaluating is the evaluation kernel's scratch, the mirror of garbling:
// the caller loads the active input labels into active, evaluate fills in
// the rest.
type evaluating struct {
	h      hasher
	active []wire          // active label of every wire
	label  [LabelSize]byte // one evaluator label being unpadded
}

// inputs returns the active-label array for c, its input wires to be
// filled by the caller before evaluate.
func (s *evaluating) inputs(c *Circuit) []wire {
	if cap(s.active) < c.NumWires {
		s.active = make([]wire, c.NumWires)
	}
	s.active = s.active[:c.NumWires]
	return s.active
}

// evaluate walks the gates over the garbled tables, which must be
// c.TableBytes() long.
func (s *evaluating) evaluate(c *Circuit, tables []byte) error {
	active := s.active
	h := &s.h
	var tweak uint64
	for i := range c.Gates {
		g := &c.Gates[i]
		switch g.Kind {
		case GateXOR:
			active[g.Out] = active[g.A].xor(active[g.B])
		case GateINV:
			active[g.Out] = active[g.A]
		case GateAND:
			a, b := active[g.A], active[g.B]
			tg := loadWire(tables[tweak*LabelSize:])
			te := loadWire(tables[(tweak+1)*LabelSize:])
			ha, hb := h.hash2(a, b, tweak)
			wg := ha.xor(tg.when(a.lsb()))
			we := hb.xor(te.xor(a).when(b.lsb()))
			active[g.Out] = wg.xor(we)
			tweak += 2
		default:
			return fmt.Errorf("gc: unknown gate kind %d", g.Kind)
		}
	}
	return nil
}

// Evaluate runs the evaluator over the garbled tables given active labels
// for all inputs, returning the decoded output bits.
func Evaluate(c *Circuit, tables []byte, garblerLabels, evalLabels []Label, decode []byte) ([]byte, error) {
	if len(garblerLabels) != c.NumGarbler || len(evalLabels) != c.NumEvaluator {
		return nil, fmt.Errorf("gc: label count mismatch (%d,%d) want (%d,%d)",
			len(garblerLabels), len(evalLabels), c.NumGarbler, c.NumEvaluator)
	}
	if len(tables) != c.TableBytes() {
		return nil, fmt.Errorf("gc: tables are %d bytes, want %d", len(tables), c.TableBytes())
	}
	if len(decode) != len(c.Outputs) {
		return nil, fmt.Errorf("gc: decode has %d bits, want %d", len(decode), len(c.Outputs))
	}
	var s evaluating
	active := s.inputs(c)
	for i := range garblerLabels {
		active[i] = loadWire(garblerLabels[i][:])
	}
	for i := range evalLabels {
		active[c.NumGarbler+i] = loadWire(evalLabels[i][:])
	}
	if err := s.evaluate(c, tables); err != nil {
		return nil, err
	}
	bits := make([]byte, len(c.Outputs))
	for i, w := range c.Outputs {
		bits[i] = byte(active[w].lsb()) ^ decode[i]
	}
	return bits, nil
}
