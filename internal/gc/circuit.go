// Package gc implements Yao's garbled-circuit protocol with the modern
// optimisations the paper's GC layer relies on: free-XOR (XOR gates cost
// nothing), point-and-permute, and half-gates AND garbling (two
// ciphertexts per AND gate). ABNN2 evaluates its non-linear layers
// (Algorithm 2 and the optimised ReLU of section 4.2) inside this
// machinery, with the client as garbler and the server as evaluator.
//
// Circuits are built by both parties deterministically from public layer
// parameters, so only garbled tables, input labels and decode bits cross
// the wire.
package gc

import "fmt"

// GateKind enumerates circuit gate types. XOR and INV are free under
// free-XOR garbling; AND costs two ciphertexts.
type GateKind uint8

const (
	GateXOR GateKind = iota
	GateAND
	GateINV // out = NOT a (b unused)
)

// Gate is one two-input boolean gate over wire indices.
type Gate struct {
	Kind GateKind
	A, B int
	Out  int
}

// Circuit is a boolean circuit over single-bit wires. Wires [0,
// NumGarbler) belong to the garbler's input, the next NumEvaluator wires
// to the evaluator's input; gate outputs follow.
type Circuit struct {
	NumGarbler   int
	NumEvaluator int
	NumWires     int
	Gates        []Gate
	Outputs      []int

	ands int // AND gates in Gates, counted once by Finish; 0 = not counted
}

// NumAND returns the number of AND gates, the communication-relevant size
// of the circuit (XOR and INV are free). Every flight-size computation
// asks, so a circuit that came out of Builder.Finish answers from the
// count taken there; one assembled by hand is scanned.
func (c *Circuit) NumAND() int {
	if c.ands > 0 {
		return c.ands
	}
	n := 0
	for _, g := range c.Gates {
		if g.Kind == GateAND {
			n++
		}
	}
	return n
}

// TableBytes returns the size of the garbled tables on the wire: two
// LabelSize ciphertexts per AND gate.
func (c *Circuit) TableBytes() int { return c.NumAND() * 2 * LabelSize }

// Builder incrementally constructs a Circuit. Obtain one from NewBuilder,
// declare inputs first, then compose gates, then Finish.
type Builder struct {
	c      Circuit
	inputs bool // input declaration phase over?
}

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder { return &Builder{} }

// GarblerInput reserves n garbler-input wires and returns their indices.
// All garbler inputs must be declared before evaluator inputs.
func (b *Builder) GarblerInput(n int) []int {
	if b.c.NumEvaluator > 0 || b.inputs {
		panic("gc: garbler inputs must be declared first")
	}
	b.c.NumGarbler += n
	return b.wires(n)
}

// EvaluatorInput reserves n evaluator-input wires and returns their
// indices.
func (b *Builder) EvaluatorInput(n int) []int {
	if b.inputs {
		panic("gc: inputs must be declared before gates")
	}
	b.c.NumEvaluator += n
	return b.wires(n)
}

// wires reserves the next n wire indices.
func (b *Builder) wires(n int) []int {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = b.c.NumWires + i
	}
	b.c.NumWires += n
	return ws
}

// gate appends a gate on a fresh output wire and returns that wire; the
// first gate ends input declaration.
func (b *Builder) gate(kind GateKind, a, c int) int {
	b.inputs = true
	out := b.c.NumWires
	b.c.NumWires++
	b.c.Gates = append(b.c.Gates, Gate{Kind: kind, A: a, B: c, Out: out})
	return out
}

// XOR appends an XOR gate and returns its output wire.
func (b *Builder) XOR(a, c int) int { return b.gate(GateXOR, a, c) }

// AND appends an AND gate and returns its output wire.
func (b *Builder) AND(a, c int) int { return b.gate(GateAND, a, c) }

// NOT appends an inverter and returns its output wire.
func (b *Builder) NOT(a int) int { return b.gate(GateINV, a, 0) }

// Output marks wires as circuit outputs, in order.
func (b *Builder) Output(ws ...int) { b.c.Outputs = append(b.c.Outputs, ws...) }

// Finish validates and returns the circuit.
func (b *Builder) Finish() *Circuit {
	for _, g := range b.c.Gates {
		if g.A < 0 || g.A >= g.Out || (g.Kind != GateINV && (g.B < 0 || g.B >= g.Out)) {
			panic(fmt.Sprintf("gc: gate output %d depends on later wire", g.Out))
		}
	}
	for _, o := range b.c.Outputs {
		if o < 0 || o >= b.c.NumWires {
			panic(fmt.Sprintf("gc: output wire %d out of range", o))
		}
	}
	c := b.c
	c.ands = c.NumAND()
	return &c
}

// --- word-level helpers (little-endian bit vectors) ---

// AdderMod appends a ripple-carry adder computing (a + b) mod 2^len(a).
// The final carry is simply dropped, which is why the modular reduction
// costs no extra gates — the property the paper highlights in section 4.2
// ("no extra cost required to complete the non-XOR gates corresponding to
// the modulo operation"). One AND gate per bit except the last.
func (b *Builder) AdderMod(a, c []int) []int {
	if len(a) != len(c) {
		panic("gc: adder operand width mismatch")
	}
	n := len(a)
	sum := make([]int, n)
	carry := -1
	for i := 0; i < n; i++ {
		if carry < 0 {
			sum[i] = b.XOR(a[i], c[i])
			if i < n-1 {
				carry = b.AND(a[i], c[i])
			}
		} else {
			axc := b.XOR(a[i], carry)
			sum[i] = b.XOR(axc, c[i])
			if i < n-1 {
				// carry' = (a^carry)(b^carry) ^ carry
				bxc := b.XOR(c[i], carry)
				carry = b.XOR(b.AND(axc, bxc), carry)
			}
		}
	}
	return sum
}

// SubMod appends a subtractor computing (a - b) mod 2^len(a) as
// a + NOT(b) + 1 via a ripple-carry chain with initial carry 1.
func (b *Builder) SubMod(a, c []int) []int {
	if len(a) != len(c) {
		panic("gc: subtractor operand width mismatch")
	}
	n := len(a)
	diff := make([]int, n)
	// carry-in = 1 for bit 0: sum0 = a0 ^ ~b0 ^ 1 = a0 ^ b0;
	// carry1 = (a0^1)(~b0^1) ^ 1 = OR(a0, ~b0) ... implement uniformly by
	// tracking carry as a wire; seed with a constant-1 derived wire.
	one := b.constOne(a[0])
	nb := make([]int, n)
	for i := range c {
		nb[i] = b.NOT(c[i])
	}
	carry := one
	for i := 0; i < n; i++ {
		axc := b.XOR(a[i], carry)
		diff[i] = b.XOR(axc, nb[i])
		if i < n-1 {
			bxc := b.XOR(nb[i], carry)
			carry = b.XOR(b.AND(axc, bxc), carry)
		}
	}
	return diff
}

// constOne synthesises a constant-1 wire as w XOR NOT(w) for any existing
// wire w; both gates are free under free-XOR garbling.
func (b *Builder) constOne(w int) int {
	return b.XOR(w, b.NOT(w))
}

// MuxVec appends a word multiplexer: out = sel ? a : c (bitwise
// out_i = c_i XOR sel AND (a_i XOR c_i)). One AND per bit.
func (b *Builder) MuxVec(sel int, a, c []int) []int {
	if len(a) != len(c) {
		panic("gc: mux operand width mismatch")
	}
	out := make([]int, len(a))
	for i := range a {
		d := b.XOR(a[i], c[i])
		out[i] = b.XOR(c[i], b.AND(sel, d))
	}
	return out
}

// SignedLess appends a two's-complement comparator returning the single
// bit [a < b]. With d = a - b:
//
//	a < b  <=>  (sign(a) AND NOT sign(b)) OR (sign(a) == sign(b) AND sign(d))
//
// The two disjuncts are mutually exclusive, so OR is a free XOR.
// Cost: one subtractor (len-1 ANDs) plus 2 ANDs.
func (b *Builder) SignedLess(a, c []int) int {
	if len(a) != len(c) {
		panic("gc: comparator operand width mismatch")
	}
	n := len(a)
	d := b.SubMod(a, c)
	as, cs, ds := a[n-1], c[n-1], d[n-1]
	neg := b.AND(as, b.NOT(cs))            // a<0, b>=0
	sameSign := b.NOT(b.XOR(as, cs))       // signs equal
	return b.XOR(neg, b.AND(sameSign, ds)) // exclusive cases
}

// Max appends out = max(a, c) for signed words: one comparator plus one
// word mux.
func (b *Builder) Max(a, c []int) []int {
	lt := b.SignedLess(a, c)
	return b.MuxVec(lt, c, a)
}

// AndBit appends out_i = sel AND a_i for every bit of a.
func (b *Builder) AndBit(sel int, a []int) []int {
	out := make([]int, len(a))
	for i := range a {
		out[i] = b.AND(sel, a[i])
	}
	return out
}
