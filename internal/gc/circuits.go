package gc

// Circuit constructors for ABNN2's non-linear layers. All word values are
// little-endian bit vectors over the ring Z_2^bits; input conventions
// follow the paper's role assignment: the client (garbler) holds y1 and
// fresh output shares z1, the server (evaluator) holds y0 and learns z0.

// Algorithm2Circuit builds the paper's generic non-linear circuit
// (Algorithm 2, section 4.2) for n windows of win values each:
//
//	for each window k: y = max over the window of (y0[i] + y1[i]) mod 2^bits
//	                   z0[k] = f(y) - z1[k] mod 2^bits
//
// f is a sub-circuit factory that receives the builder and the bits of y
// and returns the activated bits; nil is the identity. Every reshare layer
// is an instance: ReLU is a window of one with (*Builder).ReLU, max
// pooling a window of k*k values with or without it. The maximum is a
// tournament in input order.
//
// Garbler inputs: y1 (n*win words), then z1 (n words). Evaluator inputs:
// y0 (n*win words). Outputs: z0 (n words), revealed to the evaluator.
// Inputs are ordered window by window; the caller gathers values into
// window order.
func Algorithm2Circuit(bits uint, win, n int, f func(b *Builder, y []int) []int) *Circuit {
	if win < 1 {
		panic("gc: window must hold at least one value")
	}
	b := NewBuilder()
	l := int(bits)
	y1 := b.GarblerInput(n * win * l)
	z1 := b.GarblerInput(n * l)
	y0 := b.EvaluatorInput(n * win * l)
	for k := 0; k < n; k++ {
		var y []int
		for e := 0; e < win; e++ {
			off := (k*win + e) * l
			v := b.AdderMod(y0[off:off+l], y1[off:off+l])
			if e == 0 {
				y = v
			} else {
				y = b.Max(y, v)
			}
		}
		if f != nil {
			y = f(b, y)
		}
		b.Output(b.SubMod(y, z1[k*l:(k+1)*l])...)
	}
	return b.Finish()
}

// ReLU appends max(0, y) for a signed word: every bit ANDed with the
// negated sign bit. One AND per bit, so Algorithm 2 for ReLU costs about
// 3*bits AND gates per neuron.
func (b *Builder) ReLU(y []int) []int {
	pos := b.NOT(y[len(y)-1]) // 1 when y >= 0 in two's complement
	return b.AndBit(pos, y)
}

// BatchReLUCircuit is Algorithm 2 for f = ReLU over n neurons.
func BatchReLUCircuit(bits uint, n int) *Circuit {
	return Algorithm2Circuit(bits, 1, n, (*Builder).ReLU)
}

// BatchMaxPoolCircuit is Algorithm 2 over n non-overlapping pooling
// windows of win values; withReLU clamps the maximum at zero, fusing the
// ReLU into the pool since max(relu(x_i)) == relu(max(x_i)).
func BatchMaxPoolCircuit(bits uint, win, n int, withReLU bool) *Circuit {
	if withReLU {
		return Algorithm2Circuit(bits, win, n, (*Builder).ReLU)
	}
	return Algorithm2Circuit(bits, win, n, nil)
}

// BatchSignCircuit builds the comparison-only circuit used by the
// optimised ReLU (paper section 4.2): it reveals, per neuron, the single
// bit b = 1 iff y0 + y1 >= 0 (z0 > -z1 in the paper's phrasing), and
// nothing else passes through the circuit. Cost: about bits-1 AND gates
// per neuron — one third of the Algorithm-2 circuit.
//
// Garbler inputs: y1 (n*bits). Evaluator inputs: y0 (n*bits).
// Outputs: n sign bits, revealed to the evaluator.
func BatchSignCircuit(bits uint, n int) *Circuit {
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

// BatchArgmaxCircuit builds a secure argmax over n words for each of
// `batch` independent samples in one circuit (one protocol round for a
// whole prediction batch): per sample it reconstructs every y = y0 + y1,
// runs a tournament carrying the running index, and outputs the winning
// index XOR a garbler-chosen mask (so the evaluator learns nothing: it
// forwards the masked index to the garbler, who unmasks). idxBits index
// bits must satisfy 2^idxBits >= n.
//
// Garbler inputs: y1 (batch*n words), masks (batch*idxBits). Evaluator:
// y0 (batch*n words). Outputs: batch masked indices.
func BatchArgmaxCircuit(bits uint, n int, idxBits uint, batch int) *Circuit {
	if n < 1 || uint64(n) > 1<<idxBits {
		panic("gc: argmax index width too small")
	}
	b := NewBuilder()
	l := int(bits)
	ib := int(idxBits)
	y1 := b.GarblerInput(batch * n * l)
	masks := b.GarblerInput(batch * ib)
	y0 := b.EvaluatorInput(batch * n * l)
	for s := 0; s < batch; s++ {
		base := s * n * l
		best := b.AdderMod(y0[base:base+l], y1[base:base+l])
		// Index bits are constants: 0 and 1 as free wires.
		zero := b.XOR(best[0], best[0])
		one := b.constOne(zero)
		bestIdx := make([]int, ib)
		for i := range bestIdx {
			bestIdx[i] = zero
		}
		for e := 1; e < n; e++ {
			off := base + e*l
			y := b.AdderMod(y0[off:off+l], y1[off:off+l])
			gt := b.SignedLess(best, y) // candidate wins
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

// PopCount appends a Wallace-style counter returning the number of set
// bits among the inputs as a little-endian word of ceil(log2(n+1)) bits.
// Cost: about n AND gates (each full adder costs one AND via AdderMod on
// growing widths; we use a balanced tree of ripple adders).
func (b *Builder) PopCount(xs []int) []int {
	if len(xs) == 0 {
		panic("gc: popcount of nothing")
	}
	// Start with 1-bit words, repeatedly add pairs, widening by one bit
	// per level (sum of two k-bit counts fits in k+1 bits).
	words := make([][]int, len(xs))
	for i, x := range xs {
		words[i] = []int{x}
	}
	for len(words) > 1 {
		var next [][]int
		for i := 0; i+1 < len(words); i += 2 {
			a, c := words[i], words[i+1]
			// Widen both to len+1 with a constant-0 wire.
			zero := b.XOR(a[0], a[0])
			aw := append(append([]int{}, a...), zero)
			cw := append(append([]int{}, c...), zero)
			for len(aw) < len(cw) {
				aw = append(aw, zero)
			}
			for len(cw) < len(aw) {
				cw = append(cw, zero)
			}
			next = append(next, b.AdderMod(aw, cw))
		}
		if len(words)%2 == 1 {
			next = append(next, words[len(words)-1])
		}
		words = next
	}
	// The count fits in ceil(log2(n+1)) bits; higher wires are constant 0
	// (the widened adders never wrap), so trim to the canonical width.
	need := 1
	for (1 << need) < len(xs)+1 {
		need++
	}
	out := words[0]
	if len(out) > need {
		out = out[:need]
	}
	for len(out) < need {
		out = append(out, b.XOR(xs[0], xs[0]))
	}
	return out
}

// GreaterConst appends the comparison [x > k] for an unsigned word x and
// a public constant k, via x - k - 1 borrow logic: compute x + (~k) and
// take the carry out (x > k over the natural numbers when the k+1
// subtraction does not borrow). Implemented as: lt = SignedLess over
// width+1 with zero-extension, negated.
func (b *Builder) GreaterConst(x []int, k uint64) int {
	zero := b.XOR(x[0], x[0])
	one := b.constOne(x[0])
	// Zero-extend x by one bit so the comparison is unsigned.
	xw := append(append([]int{}, x...), zero)
	kw := make([]int, len(xw))
	for i := range kw {
		if (k>>uint(i))&1 == 1 {
			kw[i] = one
		} else {
			kw[i] = zero
		}
	}
	// x > k  <=>  k < x (both non-negative in the widened signed view).
	return b.SignedLess(kw, xw)
}

// UintToBits expands the low `bits` bits of x, LSB first, one byte per bit.
func UintToBits(x uint64, bits uint) []byte { return VecToBits([]uint64{x}, bits) }

// BitsToUint packs a little-endian bit vector back into a uint64.
func BitsToUint(bits []byte) uint64 {
	var x uint64
	for i, b := range bits {
		x |= uint64(b&1) << uint(i)
	}
	return x
}

// VecToBits concatenates the little-endian bit vectors of every element.
func VecToBits(xs []uint64, bits uint) []byte {
	out := make([]byte, uint(len(xs))*bits)
	for k, x := range xs {
		word := out[uint(k)*bits : uint(k+1)*bits]
		for i := range word {
			word[i] = byte((x >> uint(i)) & 1)
		}
	}
	return out
}

// BitsToVec splits a concatenated bit vector into n values of the given
// width.
func BitsToVec(b []byte, bits uint, n int) []uint64 {
	out := make([]uint64, n)
	for k := 0; k < n; k++ {
		out[k] = BitsToUint(b[uint(k)*bits : uint(k+1)*bits])
	}
	return out
}
