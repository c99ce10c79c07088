package gc

import (
	"fmt"
	"reflect"
	"testing"
)

// seedReLUCircuit is the body BatchReLUCircuit had before the ReLU, pool
// and generic-activation constructors became instances of
// Algorithm2Circuit, frozen here so that the identity test below compares
// the one builder against what the goldens were recorded with and not
// against itself.
// BatchFuncCircuit and ArgmaxCircuit are the two instances no engine
// builds: Algorithm 2 over n neurons for an arbitrary activation, and the
// argmax of a single sample.
func BatchFuncCircuit(bits uint, n int, f func(b *Builder, y []int) []int) *Circuit {
	return Algorithm2Circuit(bits, 1, n, f)
}

func ArgmaxCircuit(bits uint, n int, idxBits uint) *Circuit {
	return BatchArgmaxCircuit(bits, n, idxBits, 1)
}

func seedReLUCircuit(bits uint, n int) *Circuit {
	b := NewBuilder()
	l := int(bits)
	y1 := b.GarblerInput(n * l)
	z1 := b.GarblerInput(n * l)
	y0 := b.EvaluatorInput(n * l)
	for k := 0; k < n; k++ {
		y := b.AdderMod(y0[k*l:(k+1)*l], y1[k*l:(k+1)*l])
		pos := b.NOT(y[l-1])
		relu := b.AndBit(pos, y)
		z0 := b.SubMod(relu, z1[k*l:(k+1)*l])
		b.Output(z0...)
	}
	return b.Finish()
}

// seedMaxPoolCircuit is BatchMaxPoolCircuit's former body, frozen the same
// way: it pins the tournament's order and where the clamp sits.
func seedMaxPoolCircuit(bits uint, win, n int, withReLU bool) *Circuit {
	b := NewBuilder()
	l := int(bits)
	y1 := b.GarblerInput(n * win * l)
	z1 := b.GarblerInput(n * l)
	y0 := b.EvaluatorInput(n * win * l)
	for k := 0; k < n; k++ {
		base := k * win * l
		best := b.AdderMod(y0[base:base+l], y1[base:base+l])
		for e := 1; e < win; e++ {
			off := base + e*l
			y := b.AdderMod(y0[off:off+l], y1[off:off+l])
			best = b.Max(best, y)
		}
		if withReLU {
			pos := b.NOT(best[l-1])
			best = b.AndBit(pos, best)
		}
		z0 := b.SubMod(best, z1[k*l:(k+1)*l])
		b.Output(z0...)
	}
	return b.Finish()
}

// seedSignCircuit and seedArgmaxCircuit are BatchSignCircuit's and
// BatchArgmaxCircuit's flat bodies from before every constructor emitted
// one window's body, frozen the same way.
func seedSignCircuit(bits uint, n int) *Circuit {
	b := NewBuilder()
	l := int(bits)
	y1 := b.GarblerInput(n * l)
	y0 := b.EvaluatorInput(n * l)
	for k := 0; k < n; k++ {
		y := b.AdderMod(y0[k*l:(k+1)*l], y1[k*l:(k+1)*l])
		b.Output(b.NOT(y[l-1]))
	}
	return b.Finish()
}

func seedArgmaxCircuit(bits uint, n int, idxBits uint, batch int) *Circuit {
	b := NewBuilder()
	l := int(bits)
	ib := int(idxBits)
	y1 := b.GarblerInput(batch * n * l)
	masks := b.GarblerInput(batch * ib)
	y0 := b.EvaluatorInput(batch * n * l)
	for s := 0; s < batch; s++ {
		base := s * n * l
		best := b.AdderMod(y0[base:base+l], y1[base:base+l])
		zero := b.XOR(best[0], best[0])
		one := b.constOne(zero)
		bestIdx := make([]int, ib)
		for i := range bestIdx {
			bestIdx[i] = zero
		}
		for e := 1; e < n; e++ {
			off := base + e*l
			y := b.AdderMod(y0[off:off+l], y1[off:off+l])
			gt := b.SignedLess(best, y)
			best = b.MuxVec(gt, y, best)
			candIdx := make([]int, ib)
			for i := range candIdx {
				if (e>>uint(i))&1 == 1 {
					candIdx[i] = one
				} else {
					candIdx[i] = zero
				}
			}
			bestIdx = b.MuxVec(gt, candIdx, bestIdx)
		}
		for i := 0; i < ib; i++ {
			b.Output(b.XOR(bestIdx[i], masks[s*ib+i]))
		}
	}
	return b.Finish()
}

// expand rebuilds the flat gate list that a body form stands for, by the
// flat numbering Circuit documents, as a circuit of one window with one
// input group per party. A circuit of one window expands to itself, its
// input groups merged, so two circuits are the same circuit exactly when
// their expansions are deeply equal.
func expand(c *Circuit) *Circuit {
	n := c.windows
	inputs := c.NumWires - len(c.Gates)
	base, size := make([]int, 0, inputs), make([]int, 0, inputs)
	off, start := 0, 0
	for i, sz := range c.groups {
		if i == c.garblerGroups {
			off, start = c.NumGarbler, 0
		}
		for x := 0; x < sz; x++ {
			base, size = append(base, off+start*n+x), append(size, sz)
		}
		start += sz
	}
	wire := func(w, k int) int {
		if w >= inputs {
			return n*inputs + k*len(c.Gates) + w - inputs
		}
		return base[w] + k*size[w]
	}
	flat := &Circuit{
		NumGarbler:    c.NumGarbler,
		NumEvaluator:  c.NumEvaluator,
		NumWires:      n * c.NumWires,
		windows:       1,
		groups:        []int{c.NumGarbler, c.NumEvaluator},
		garblerGroups: 1,
		ands:          c.NumAND(),
	}
	for k := 0; k < n; k++ {
		for _, g := range c.Gates {
			e := Gate{Kind: g.Kind, A: wire(g.A, k), Out: wire(g.Out, k)}
			if g.Kind != GateINV {
				e.B = wire(g.B, k)
			}
			flat.Gates = append(flat.Gates, e)
		}
	}
	for k := 0; k < n; k++ {
		for _, o := range c.Outputs {
			flat.Outputs = append(flat.Outputs, wire(o, k))
		}
	}
	return flat
}

// TestAlgorithm2Instances pins the identities the single builder rests
// on: a ReLU circuit is a max-pool circuit over windows of one and the
// generic-activation circuit for f = ReLU, gate for gate and wire for
// wire, and all of them expand to the circuit the seed built — so a ReLU
// round and a pool round of window one garble to the same bytes, and the
// body form garbles to the seed's. The sign and argmax bodies expand to
// the seed's flat circuits too.
func TestAlgorithm2Instances(t *testing.T) {
	for _, bits := range []uint{8, 32, 33, 64} {
		for _, n := range []int{1, 2, 3, 4, 5, 17} {
			t.Run(fmt.Sprintf("bits%d/n%d", bits, n), func(t *testing.T) {
				want := expand(seedReLUCircuit(bits, n))
				for name, got := range map[string]*Circuit{
					"BatchReLUCircuit":        BatchReLUCircuit(bits, n),
					"BatchMaxPoolCircuit/1":   BatchMaxPoolCircuit(bits, 1, n, true),
					"BatchFuncCircuit/relu":   BatchFuncCircuit(bits, n, (*Builder).ReLU),
					"seedMaxPoolCircuit/1":    seedMaxPoolCircuit(bits, 1, n, true),
					"Algorithm2Circuit/1relu": Algorithm2Circuit(bits, 1, n, (*Builder).ReLU),
				} {
					if !reflect.DeepEqual(expand(got), want) {
						t.Errorf("%s differs from the seed's ReLU circuit", name)
					}
				}
				id := func(_ *Builder, y []int) []int { return y }
				if !reflect.DeepEqual(BatchFuncCircuit(bits, n, id), BatchMaxPoolCircuit(bits, 1, n, false)) {
					t.Error("the identity activation differs from a plain pool of window one")
				}
				for _, withReLU := range []bool{false, true} {
					if !reflect.DeepEqual(expand(BatchMaxPoolCircuit(bits, 4, n, withReLU)), expand(seedMaxPoolCircuit(bits, 4, n, withReLU))) {
						t.Errorf("BatchMaxPoolCircuit(win 4, relu %v) differs from the seed's", withReLU)
					}
				}
				if !reflect.DeepEqual(expand(BatchSignCircuit(bits, n)), expand(seedSignCircuit(bits, n))) {
					t.Error("BatchSignCircuit differs from the seed's")
				}
				if !reflect.DeepEqual(expand(BatchArgmaxCircuit(bits, 10, 4, n)), expand(seedArgmaxCircuit(bits, 10, 4, n))) {
					t.Error("BatchArgmaxCircuit differs from the seed's")
				}
			})
		}
	}
}
