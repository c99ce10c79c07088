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

// TestAlgorithm2Instances pins the identities the single builder rests
// on: a ReLU circuit is a max-pool circuit over windows of one and the
// generic-activation circuit for f = ReLU, gate for gate and wire for
// wire, and all of them are the circuit the seed built — so a ReLU round
// and a pool round of window one garble to the same bytes.
func TestAlgorithm2Instances(t *testing.T) {
	for _, bits := range []uint{8, 32, 33, 64} {
		for _, n := range []int{1, 3, 17} {
			t.Run(fmt.Sprintf("bits%d/n%d", bits, n), func(t *testing.T) {
				want := seedReLUCircuit(bits, n)
				for name, got := range map[string]*Circuit{
					"BatchReLUCircuit":        BatchReLUCircuit(bits, n),
					"BatchMaxPoolCircuit/1":   BatchMaxPoolCircuit(bits, 1, n, true),
					"BatchFuncCircuit/relu":   BatchFuncCircuit(bits, n, (*Builder).ReLU),
					"seedMaxPoolCircuit/1":    seedMaxPoolCircuit(bits, 1, n, true),
					"Algorithm2Circuit/1relu": Algorithm2Circuit(bits, 1, n, (*Builder).ReLU),
				} {
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s differs from the seed's ReLU circuit", name)
					}
				}
				id := func(_ *Builder, y []int) []int { return y }
				if !reflect.DeepEqual(BatchFuncCircuit(bits, n, id), BatchMaxPoolCircuit(bits, 1, n, false)) {
					t.Error("the identity activation differs from a plain pool of window one")
				}
				for _, withReLU := range []bool{false, true} {
					if !reflect.DeepEqual(BatchMaxPoolCircuit(bits, 4, n, withReLU), seedMaxPoolCircuit(bits, 4, n, withReLU)) {
						t.Errorf("BatchMaxPoolCircuit(win 4, relu %v) differs from the seed's", withReLU)
					}
				}
			})
		}
	}
}
