package gc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"abnn2/internal/otext"
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

// mmoKey is the fixed AES key of the garbling hash, and mmo its
// permutation.
var (
	mmoKey = sha256.Sum256([]byte("abnn2/gc/halfgates"))
	mmo    = prg.NewPerm(mmoKey[:16])
)

// The garbling hash H(label, tweak) is the standard fixed-key AES MMO
// construction pi(x) XOR x with the tweak folded into the input's low
// word (JustGarble / half-gates paper instantiation). The g-th AND gate
// of window k has tweak 2(k*A + g), its evaluator half-gate tweak+1, and
// its two table rows at rows tweak and tweak+1 of the tables. Both
// parties walk the body once per group of four windows (lockstep), and an
// AND gate's hashes fill the permutation's eight lanes: four hashes a
// window to garble, so a window pair per call (garblePair, two calls a
// group), and two to evaluate, so the whole quad in one (evalQuad). With
// AES-NI one assembly call does the hashes and the half-gates of its
// windows (gate_amd64.s); otherwise, and for a group short of windows,
// the Go steps below do it over Perm.Encrypt with the same lanes.
const (
	garblePair = 2
	evalQuad   = 4
	group      = evalQuad
)

// inputSeed keys the garbler's active input labels: X_f, the active label
// of garbler input f (flat numbering), is AES(key, f), block f of this
// key's CTR keystream from a zero IV. Both parties derive it, so it never
// crosses the wire; the garbler garbles from the zero label X_f XOR b_f*R
// (SECURITY.md, "Garbler input labels", for why R must stay per circuit).
// The key is not mmo's, so the garbling hash counts no derivation.
var inputSeed = func() prg.Seed {
	h := sha256.Sum256([]byte("abnn2/gc/garbler-inputs"))
	return prg.Seed(h[:prg.SeedSize])
}()

// inputLabels caches X_0, X_1, ..., LabelSize bytes apart. A Garbler and
// an Evaluator each keep one, grown to the largest circuit they have run,
// so no circuit derives or copies its garbler labels.
type inputLabels []byte

// upTo returns X_0 onwards, at least as many labels as any of circs has
// garbler inputs, deriving them again only when one has more than every
// circuit before. A keystream's prefix does not depend on its length, so
// growing keeps every label handed out.
func (x *inputLabels) upTo(circs ...*Circuit) []byte {
	n := 0
	for _, c := range circs {
		n = max(n, c.NumGarbler*LabelSize)
	}
	if len(*x) < n {
		*x = make(inputLabels, n)
		prg.New(inputSeed).Fill(*x)
	}
	return *x
}

// Garbled is the garbler's output: everything the evaluator needs except
// the evaluator's own input labels (those are transferred by OT).
type Garbled struct {
	Tables        []byte  // 2 * LabelSize bytes per AND gate, in gate order
	GarblerLabels []Label // active labels for the garbler's inputs: X_0, X_1, ...
	Decode        []byte  // one permute bit per output wire
	// Evaluator input label pairs, kept by the garbler for the OTs.
	EvalPairs [][2]Label
}

// garbling is the garbling kernel's state and scratch. One garbling
// serves one goroutine; reused from circuit to circuit it allocates
// nothing after the first: its one array holds a window group's body
// labels, wherever the windows sit in the circuit.
type garbling struct {
	lanes prg.Lanes
	r     wire          // free-XOR global offset, lsb 1
	lab   [][group]wire // zero label of body wire w in window j of the group: lab[w][j]
}

// flight garbles c into msg, laid out as flightBytes describes, with the
// garbler's active input labels in labels (X_0 onwards, at least
// NumGarbler of them, from an inputLabels) and the evaluator's input
// labels in pairs, NumEvaluator*2*LabelSize bytes the caller holds: input
// i's zero label at pairs[2i*LabelSize:], the next LabelSize bytes
// scratch or, without a block, its partner. Free-XOR with global offset R
// (lsb 1), half-gates for AND, INV by XORing the output-wire semantics
// with R. rng draws R; garbler input f's zero label is X_f XOR b_f*R.
//
// The evaluator's labels are those of a correlated OT: with blk, the
// circuit's label-OT block, input i's zero label k0 is its pad for
// choice 0, and the flight's ciphertext i is pad1 XOR k0 XOR R, so the
// evaluator learns k0 or k0 XOR R and nothing else. The block is
// released once its pads are derived. Without one (Garble, and a circuit
// without evaluator inputs) rng draws the zero labels next, in flat order,
// and pairs holds each beside its partner k0 XOR R for Garbled.EvalPairs;
// the keystream is a stream, so one draw per region yields the same
// labels, and leaves rng in the same state, as one draw per label.
func (s *garbling) flight(c *Circuit, garblerBits, labels []byte, rng *prg.PRG, blk *otext.SenderBlock, msg, pairs []byte) error {
	if len(garblerBits) != c.NumGarbler {
		return fmt.Errorf("gc: %d garbler bits for %d input wires", len(garblerBits), c.NumGarbler)
	}
	tb := c.TableBytes()
	decode := msg[tb : tb+(c.numOutputs()+7)/8]
	rng.Fill(s.lanes[0][:]) // the lanes are scratch until the first AND gate
	r := loadWire(s.lanes[0][:])
	r.lo |= 1 // point-and-permute: lsb of R must be 1
	s.r = r
	if blk != nil {
		clear(pairs)
		blk.NewDeriver().XORPadsRun(pairs, LabelSize, 0, 2)
		blk.Release()
		cts := msg[len(msg)-c.NumEvaluator*LabelSize:]
		for i := range c.NumEvaluator {
			k0, pad1 := loadWire(pairs[2*i*LabelSize:]), loadWire(pairs[(2*i+1)*LabelSize:])
			pad1.xor(k0).xor(r).store(cts[i*LabelSize:])
		}
	} else {
		// Drawn packed into the first half and spread to their slots from
		// the top down, so that each is read before a slot above it is
		// written.
		rng.Fill(pairs[:len(pairs)/2])
		for i := c.NumEvaluator - 1; i >= 0; i-- {
			z := loadWire(pairs[i*LabelSize:])
			z.store(pairs[2*i*LabelSize:])
			z.xor(r).store(pairs[(2*i+1)*LabelSize:])
		}
	}
	return s.garble(c, msg[:tb], garblerBits, labels, pairs, decode)
}

// garble garbles every window of c into tables and the packed decode
// bits, reading the garbler's input zero labels as X_f XOR b_f*R from
// labels and bits, and the evaluator's from pairs, 2*LabelSize apart.
// Each AND gate of a window group is garbled a window pair at a time.
func (s *garbling) garble(c *Circuit, tables, bits, labels, pairs, decode []byte) error {
	rk, dt := mmo.RoundKeys(), 2*uint64(c.ands)
	return lockstep(c, &s.lab, s.r, labels, bits, pairs, 2*LabelSize, decode,
		func(a, b, o *[group]wire, t uint64, L int) {
			for j := 0; j < L; j += garblePair {
				tj, n := t+uint64(j)*dt, min(garblePair, L-j)
				rows := tables[tj*LabelSize : (tj+uint64(n-1)*dt+2)*LabelSize]
				if rk != nil && n == garblePair {
					garblePairKernel(rk, (*[garblePair]wire)(a[j:]), (*[garblePair]wire)(b[j:]), (*[garblePair]wire)(o[j:]), &s.r, tj, dt, &rows[0])
				} else {
					s.and(a[j:j+n], b[j:j+n], o[j:j+n], tj, dt, rows)
				}
			}
		})
}

// lockstep walks c's body over every window, a group of windows at a
// time, in *lab: body wire w of the group's window j at lab[w][j]. It
// loads a group's input labels — garbler input f (flat numbering) from
// g[f*LabelSize:], XORed with inv where gbits[f] is 1 (on the garbler,
// X_f XOR b_f*R; the evaluator passes no bits and reads X_f), evaluator
// input f from e[f*es:] — runs XOR and INV gates over
// every lane itself and each AND gate through and, given the tweak of its
// first window and how many of the group's windows are real, and packs
// the output labels' permute bits into perm, output i at bit i%8 of
// perm[i/8]. INV XORs inv into every lane: R on the garbler, flipping
// what its zero label means, zero on the evaluator. A short last group
// runs its missing windows on stale labels, which reach no table,
// permute bit or flight.
func lockstep(c *Circuit, lab *[][group]wire, inv wire, g, gbits, e []byte, es int, perm []byte, and func(a, b, o *[group]wire, t uint64, L int)) error {
	if len(*lab) < c.NumWires {
		*lab = make([][group]wire, c.NumWires)
	}
	ls, outs := (*lab)[:c.NumWires], len(c.Outputs)
	clear(perm)
	for k := 0; k < c.windows; k += group {
		L := min(group, c.windows-k)
		w, start, src, stride, bits := 0, 0, g, LabelSize, gbits
		for i, size := range c.groups {
			if i == c.garblerGroups {
				start, src, stride, bits = 0, e, es, nil
			}
			for j := 0; j < L; j++ {
				f := start*c.windows + (k+j)*size
				for x := 0; x < size; x++ {
					l := loadWire(src[(f+x)*stride:])
					if bits != nil {
						l = l.xor(inv.when(uint64(bits[f+x] & 1)))
					}
					ls[w+x][j] = l
				}
			}
			w += size
			start += size
		}
		t := uint64(k) * 2 * uint64(c.ands)
		for i := range c.Gates {
			gt := &c.Gates[i]
			o, a := &ls[gt.Out], &ls[gt.A]
			switch gt.Kind {
			case GateXOR:
				b := &ls[gt.B]
				o[0], o[1], o[2], o[3] = a[0].xor(b[0]), a[1].xor(b[1]), a[2].xor(b[2]), a[3].xor(b[3])
			case GateINV:
				o[0], o[1], o[2], o[3] = a[0].xor(inv), a[1].xor(inv), a[2].xor(inv), a[3].xor(inv)
			case GateAND:
				and(a, &ls[gt.B], o, t, L)
				t += 2
			default:
				return fmt.Errorf("gc: unknown gate kind %d", gt.Kind)
			}
		}
		for j := 0; j < L; j++ {
			for x, w := range c.Outputs {
				i := (k+j)*outs + x
				perm[i/8] |= byte(ls[w][j].lsb()) << (uint(i) % 8)
			}
		}
	}
	return nil
}

// and garbles one AND gate in len(o) windows through Perm.Encrypt: window
// j's zero labels a[j], b[j], tweak t+j*dt, table rows at rows[j*dt*
// LabelSize:], output zero label into o[j]. Lanes 4j to 4j+3 hash
// H(a0, tweak), H(a1, tweak), H(b0, tweak+1), H(b1, tweak+1); each of
// H(a0), H(b0) feeds both its half-gate's ciphertext and its output label.
func (s *garbling) and(a, b, o []wire, t, dt uint64, rows []byte) {
	l, r := &s.lanes, s.r
	var h [8]wire // the hash inputs, then the hashes
	for j := range o {
		tw := t + uint64(j)*dt
		h[4*j], h[4*j+1], h[4*j+2], h[4*j+3] = a[j], a[j].xor(r), b[j], b[j].xor(r)
		h[4*j].lo ^= tw
		h[4*j+1].lo ^= tw
		h[4*j+2].lo ^= tw + 1
		h[4*j+3].lo ^= tw + 1
	}
	for i := range h[:4*len(o)] {
		h[i].store(l[i][:])
	}
	mmo.Encrypt(l, 4*len(o))
	for i := range h[:4*len(o)] {
		h[i] = loadWire(l[i][:]).xor(h[i])
	}
	for j := range o {
		ha0, ha1, hb0, hb1 := h[4*j], h[4*j+1], h[4*j+2], h[4*j+3]
		a0, pa, pb := a[j], a[j].lsb(), b[j].lsb()
		// Generator half-gate.
		tg := ha0.xor(ha1).xor(r.when(pb))
		wg := ha0.xor(tg.when(pa))
		// Evaluator half-gate.
		te := hb0.xor(hb1).xor(a0)
		we := hb0.xor(te.xor(a0).when(pb))
		o[j] = wg.xor(we)
		row := rows[uint64(j)*dt*LabelSize:]
		tg.store(row)
		te.store(row[LabelSize:])
	}
}

// Garble garbles the circuit under fresh randomness from rng, with the
// garbler's input bits given.
func Garble(c *Circuit, garblerBits []byte, rng *prg.PRG) (*Garbled, error) {
	msg, pairs := make([]byte, flightBytes(c)), make([]byte, c.NumEvaluator*2*LabelSize)
	var x inputLabels
	labels := x.upTo(c)
	var s garbling
	if err := s.flight(c, garblerBits, labels, rng, nil, msg, pairs); err != nil {
		return nil, err
	}
	tb := c.TableBytes()
	out := &Garbled{
		Tables:        msg[:tb:tb],
		GarblerLabels: make([]Label, c.NumGarbler),
		Decode:        make([]byte, c.numOutputs()),
		EvalPairs:     make([][2]Label, c.NumEvaluator),
	}
	for i := range out.GarblerLabels {
		copy(out.GarblerLabels[i][:], labels[i*LabelSize:])
	}
	for i := range out.Decode {
		out.Decode[i] = msg[tb+i/8] >> (uint(i) % 8) & 1
	}
	for i := range out.EvalPairs {
		copy(out.EvalPairs[i][0][:], pairs[2*i*LabelSize:])
		copy(out.EvalPairs[i][1][:], pairs[(2*i+1)*LabelSize:])
	}
	return out, nil
}

// evaluating is the evaluation kernel's scratch, the mirror of garbling:
// a window group's body labels.
type evaluating struct {
	lanes prg.Lanes
	lab   [][group]wire // active label of body wire w in window j of the group: lab[w][j]
}

// evaluate walks every window of c over tables, a window quad at a time,
// one evalQuadKernel call per AND gate, from the garbler's active input labels in glabels and the evaluator's
// in elabels, LabelSize apart each, and packs the outputs' permute bits
// into perm as lockstep does.
func (s *evaluating) evaluate(c *Circuit, tables, glabels, elabels, perm []byte) error {
	rk, dt := mmo.RoundKeys(), 2*uint64(c.ands)
	return lockstep(c, &s.lab, wire{}, glabels, nil, elabels, LabelSize, perm,
		func(a, b, o *[group]wire, t uint64, L int) {
			rows := tables[t*LabelSize : (t+uint64(L-1)*dt+2)*LabelSize]
			if rk != nil && L == evalQuad {
				evalQuadKernel(rk, a, b, o, t, dt, &rows[0])
			} else {
				s.and(a[:L], b[:L], o[:L], t, dt, rows)
			}
		})
}

// and evaluates one AND gate in len(o) windows through Perm.Encrypt, the
// mirror of garbling.and: lanes 2j and 2j+1 hash H(a, tweak) and
// H(b, tweak+1) of window j.
func (s *evaluating) and(a, b, o []wire, t, dt uint64, rows []byte) {
	l := &s.lanes
	var h [8]wire // the hash inputs, then the hashes
	for j := range o {
		tw := t + uint64(j)*dt
		h[2*j], h[2*j+1] = a[j], b[j]
		h[2*j].lo ^= tw
		h[2*j+1].lo ^= tw + 1
	}
	for i := range h[:2*len(o)] {
		h[i].store(l[i][:])
	}
	mmo.Encrypt(l, 2*len(o))
	for i := range h[:2*len(o)] {
		h[i] = loadWire(l[i][:]).xor(h[i])
	}
	for j := range o {
		row := rows[uint64(j)*dt*LabelSize:]
		tg, te := loadWire(row), loadWire(row[LabelSize:])
		wg := h[2*j].xor(tg.when(a[j].lsb()))
		we := h[2*j+1].xor(te.xor(a[j]).when(b[j].lsb()))
		o[j] = wg.xor(we)
	}
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
	if len(decode) != c.numOutputs() {
		return nil, fmt.Errorf("gc: decode has %d bits, want %d", len(decode), c.numOutputs())
	}
	flat := func(ls []Label) []byte {
		b := make([]byte, 0, len(ls)*LabelSize)
		for i := range ls {
			b = append(b, ls[i][:]...)
		}
		return b
	}
	var s evaluating
	perm := make([]byte, (c.numOutputs()+7)/8)
	if err := s.evaluate(c, tables, flat(garblerLabels), flat(evalLabels), perm); err != nil {
		return nil, err
	}
	bits := make([]byte, c.numOutputs())
	for i := range bits {
		bits[i] = (perm[i/8]>>(uint(i)%8))&1 ^ decode[i]
	}
	return bits, nil
}
