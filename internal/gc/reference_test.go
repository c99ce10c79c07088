package gc

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"abnn2/internal/prg"
)

// The garbling kernel as it stood before the word-wide, four-hash
// rewrite, frozen verbatim (names prefixed, nothing else touched): six
// fixed-key AES calls per AND gate, one rng.Bytes per input label,
// [16]byte labels passed by value. It is the byte-identity oracle of
// reference_identity_test.go and FuzzGarbleMatchesReference: the wire
// format is whatever this code produces. It walks the flat gate list, so
// each entry point first expands a body to the circuit it stands for.
// Since the garbler's active input labels left the wire it draws no zero
// label for a garbler input: that is refGarblerInput(i) XOR b_i*R, the
// one change made to the frozen code.

// mmoCipher is the garbling key under crypto/aes, the cipher the frozen
// code below called before the package's hash moved to prg.Perm; kept
// here so the reference does not run the kernel it checks.
var mmoCipher = func() cipher.Block {
	c, err := aes.NewCipher(mmoKey[:16])
	if err != nil {
		panic(err) // impossible: fixed key length
	}
	return c
}()

// inputCipher is the garbler-input key under crypto/aes, so that the
// reference derives X_i without the keystream inputLabels reads.
var inputCipher = func() cipher.Block {
	c, err := aes.NewCipher(inputSeed[:])
	if err != nil {
		panic(err) // impossible: fixed key length
	}
	return c
}()

// refGarblerInput is X_i, the active label of garbler input i: AES under
// the garbler-input key of i as a big-endian 128-bit counter.
func refGarblerInput(i int) Label {
	var ctr, x Label
	binary.BigEndian.PutUint64(ctr[8:], uint64(i))
	inputCipher.Encrypt(x[:], ctr[:])
	return x
}

func (l Label) lsb() byte { return l[0] & 1 }

func refXorLabel(a, b Label) Label {
	var out Label
	binary.LittleEndian.PutUint64(out[0:8],
		binary.LittleEndian.Uint64(a[0:8])^binary.LittleEndian.Uint64(b[0:8]))
	binary.LittleEndian.PutUint64(out[8:16],
		binary.LittleEndian.Uint64(a[8:16])^binary.LittleEndian.Uint64(b[8:16]))
	return out
}

type refHasher struct {
	x, e [16]byte
}

func (h *refHasher) hash(l Label, tweak uint64) Label {
	binary.LittleEndian.PutUint64(h.x[0:8], binary.LittleEndian.Uint64(l[0:8])^tweak)
	copy(h.x[8:16], l[8:16])
	mmoCipher.Encrypt(h.e[:], h.x[:])
	var out Label
	binary.LittleEndian.PutUint64(out[0:8],
		binary.LittleEndian.Uint64(h.e[0:8])^binary.LittleEndian.Uint64(h.x[0:8]))
	binary.LittleEndian.PutUint64(out[8:16],
		binary.LittleEndian.Uint64(h.e[8:16])^binary.LittleEndian.Uint64(h.x[8:16]))
	return out
}

func referenceGarble(c *Circuit, garblerBits []byte, rng *prg.PRG) (*Garbled, error) {
	c = expand(c)
	if len(garblerBits) != c.NumGarbler {
		return nil, fmt.Errorf("gc: %d garbler bits for %d input wires", len(garblerBits), c.NumGarbler)
	}
	var r Label
	copy(r[:], rng.Bytes(LabelSize))
	r[0] |= 1 // point-and-permute: lsb of R must be 1

	zero := make([]Label, c.NumWires) // zero label of every wire
	for i := 0; i < c.NumGarbler; i++ {
		zero[i] = refGarblerInput(i)
		if garblerBits[i]&1 == 1 {
			zero[i] = refXorLabel(zero[i], r)
		}
	}
	for i := c.NumGarbler; i < c.NumGarbler+c.NumEvaluator; i++ {
		copy(zero[i][:], rng.Bytes(LabelSize))
	}
	tables := make([]byte, 0, c.TableBytes())
	h := new(refHasher)
	var gateIndex uint64
	for _, g := range c.Gates {
		switch g.Kind {
		case GateXOR:
			zero[g.Out] = refXorLabel(zero[g.A], zero[g.B])
		case GateINV:
			// NOT flips semantics: label for "out=0" is label for "a=1".
			zero[g.Out] = refXorLabel(zero[g.A], r)
		case GateAND:
			a0 := zero[g.A]
			b0 := zero[g.B]
			a1 := refXorLabel(a0, r)
			b1 := refXorLabel(b0, r)
			pa := a0.lsb()
			pb := b0.lsb()
			j := 2 * gateIndex
			jp := 2*gateIndex + 1
			// Generator half-gate.
			tg := refXorLabel(h.hash(a0, j), h.hash(a1, j))
			if pb == 1 {
				tg = refXorLabel(tg, r)
			}
			wg := h.hash(a0, j)
			if pa == 1 {
				wg = refXorLabel(wg, tg)
			}
			// Evaluator half-gate.
			te := refXorLabel(refXorLabel(h.hash(b0, jp), h.hash(b1, jp)), a0)
			we := h.hash(b0, jp)
			if pb == 1 {
				we = refXorLabel(we, refXorLabel(te, a0))
			}
			zero[g.Out] = refXorLabel(wg, we)
			tables = append(tables, tg[:]...)
			tables = append(tables, te[:]...)
			gateIndex++
		default:
			return nil, fmt.Errorf("gc: unknown gate kind %d", g.Kind)
		}
	}

	out := &Garbled{Tables: tables}
	out.GarblerLabels = make([]Label, c.NumGarbler)
	for i := 0; i < c.NumGarbler; i++ {
		if garblerBits[i]&1 == 1 {
			out.GarblerLabels[i] = refXorLabel(zero[i], r)
		} else {
			out.GarblerLabels[i] = zero[i]
		}
	}
	out.EvalPairs = make([][2]Label, c.NumEvaluator)
	for i := 0; i < c.NumEvaluator; i++ {
		w := c.NumGarbler + i
		out.EvalPairs[i][0] = zero[w]
		out.EvalPairs[i][1] = refXorLabel(zero[w], r)
	}
	out.Decode = make([]byte, len(c.Outputs))
	for i, w := range c.Outputs {
		out.Decode[i] = zero[w].lsb()
	}
	return out, nil
}

func referenceEvaluate(c *Circuit, tables []byte, garblerLabels, evalLabels []Label, decode []byte) ([]byte, error) {
	c = expand(c)
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
	active := make([]Label, c.NumWires)
	copy(active, garblerLabels)
	copy(active[c.NumGarbler:], evalLabels)
	h := new(refHasher)
	var gateIndex uint64
	for _, g := range c.Gates {
		switch g.Kind {
		case GateXOR:
			active[g.Out] = refXorLabel(active[g.A], active[g.B])
		case GateINV:
			active[g.Out] = active[g.A]
		case GateAND:
			var tg, te Label
			copy(tg[:], tables[gateIndex*2*LabelSize:])
			copy(te[:], tables[gateIndex*2*LabelSize+LabelSize:])
			j := 2 * gateIndex
			jp := 2*gateIndex + 1
			a := active[g.A]
			b := active[g.B]
			wg := h.hash(a, j)
			if a.lsb() == 1 {
				wg = refXorLabel(wg, tg)
			}
			we := h.hash(b, jp)
			if b.lsb() == 1 {
				we = refXorLabel(we, refXorLabel(te, a))
			}
			active[g.Out] = refXorLabel(wg, we)
			gateIndex++
		default:
			return nil, fmt.Errorf("gc: unknown gate kind %d", g.Kind)
		}
	}
	bits := make([]byte, len(c.Outputs))
	for i, w := range c.Outputs {
		bits[i] = active[w].lsb() ^ decode[i]
	}
	return bits, nil
}
