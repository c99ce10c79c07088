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

// Circuit is a boolean circuit over single-bit wires, held as the body
// of one window and a window count n: the circuit is n copies of the
// body, each on wires of its own. Every layer circuit is one: Algorithm 2
// repeats one window's reconstruct-max-f-reshare, the sign circuit one
// neuron's comparison, the argmax one sample's tournament; a circuit from
// Builder.Finish is its own body with n = 1.
//
// A body's wires are its inputs, the garbler's groups first, then its
// gates' outputs. The circuit's flat numbering, which fixes the wire
// format, lays each input group out for all n windows before the next
// group, and then every window's internal wires, window after window:
//
//	input i of group g, window k:  start_g*n + k*size_g + i
//	internal wire w, window k:     n*inputs + k*internal + (w - inputs)
//	the g-th AND gate of window k: AND gate k*A + g
//
// where start_g is the group's first body wire, inputs and internal count
// one window's input and gate-output wires and A its AND gates. Garbler
// inputs are [0, NumGarbler) of the flat numbering and evaluator inputs
// the next NumEvaluator; outputs come window by window.
type Circuit struct {
	NumGarbler   int    // garbler input wires, over all n windows
	NumEvaluator int    // evaluator input wires, over all n windows
	NumWires     int    // one window's wires: its inputs, then its gates' outputs
	Gates        []Gate // one window's gates, over its own wires
	Outputs      []int  // one window's output wires, in order

	windows       int   // n
	groups        []int // one window's input groups' sizes, in wire order
	garblerGroups int   // how many of groups are the garbler's
	ands          int   // AND gates in one window, counted by Finish
}

// NumAND returns the number of AND gates, the communication-relevant size
// of the circuit (XOR and INV are free).
func (c *Circuit) NumAND() int { return c.ands * c.windows }

// numOutputs returns the number of output wires over all windows.
func (c *Circuit) numOutputs() int { return len(c.Outputs) * c.windows }

// repeat makes c, fresh from Finish, the body of n windows.
func (c *Circuit) repeat(n int) *Circuit {
	c.windows = n
	c.NumGarbler *= n
	c.NumEvaluator *= n
	return c
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
	b.c.garblerGroups++
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

// wires reserves the next n wire indices as one input group.
func (b *Builder) wires(n int) []int {
	b.c.groups = append(b.c.groups, n)
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

// Finish validates and returns the circuit, one window of itself.
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
	c.windows = 1
	for _, g := range c.Gates {
		if g.Kind == GateAND {
			c.ands++
		}
	}
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
