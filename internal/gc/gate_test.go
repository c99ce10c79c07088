package gc

import (
	"bytes"
	"runtime"
	"testing"

	"abnn2/internal/prg"
)

// FuzzGateKernelMatchesPortable holds the assembly AND-gate kernels to
// the Go steps they stand in for: one gate in a full window group — a
// garbled pair, an evaluated quad — on fuzzer-chosen labels, offset R
// (lsb forced to 1), table rows and permute bits, with the first window's
// tweak within 16 of 2^64, so that later windows' tweaks and every
// evaluator half-gate's tweak+1 can wrap. Table rows and output labels
// must be byte-equal. Where prg.Perm has no round keys to give (no
// AES-NI, or off amd64) there is no kernel to check.
func FuzzGateKernelMatchesPortable(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 24*LabelSize), uint8(15), uint8(93))
	f.Add(bytes.Repeat([]byte{0x01, 0x00}, 12*LabelSize), uint8(1), uint8(255))
	f.Add([]byte{0x80, 0x7F, 0x01}, uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, back, ands uint8) {
		rk := mmo.RoundKeys()
		if rk == nil {
			t.Skip("no AES-NI gate kernel here")
		}
		// 24 labels of material: the fuzzer's bytes, then a PRG's.
		buf := prg.New(prg.SeedFromInt(uint64(len(data)))).Bytes(24 * LabelSize)
		copy(buf, data)
		label := func(i int) wire { return loadWire(buf[(i%24)*LabelSize:]) }
		tw := ^uint64(0) - uint64(back%16)
		dt := 2 * (1 + uint64(ands))
		rows := func(windows int) (kernel, portable []byte) {
			kernel = make([]byte, (uint64(windows-1)*dt+2)*LabelSize)
			for i := 0; i < len(kernel); i += LabelSize {
				label(i / LabelSize).store(kernel[i:])
			}
			return kernel, append([]byte(nil), kernel...)
		}

		var g garbling
		g.r = label(0)
		g.r.lo |= 1
		a, b := [garblePair]wire{label(1), label(2)}, [garblePair]wire{label(3), label(4)}
		var ok, op [garblePair]wire
		rk1, rp1 := rows(garblePair)
		garblePairKernel(rk, &a, &b, &ok, &g.r, tw, dt, &rk1[0])
		g.and(a[:], b[:], op[:], tw, dt, rp1)
		if ok != op || !bytes.Equal(rk1, rp1) {
			t.Fatalf("garbling pair kernel differs from the Go step (tweak %#x, step %d)", tw, dt)
		}

		var e evaluating
		ea := [evalQuad]wire{label(5), label(6), label(7), label(8)}
		eb := [evalQuad]wire{label(9), label(10), label(11), label(12)}
		var ek, ep [evalQuad]wire
		rk2, rp2 := rows(evalQuad)
		evalQuadKernel(rk, &ea, &eb, &ek, tw, dt, &rk2[0])
		e.and(ea[:], eb[:], ep[:], tw, dt, rp2)
		if ek != ep || !bytes.Equal(rk2, rp2) {
			t.Fatalf("evaluation quad kernel differs from the Go step (tweak %#x, step %d)", tw, dt)
		}
	})
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestGCScratchIsBodySized bounds a kernel's memory by its circuit's body,
// not by its chunk: garbling a production chunk into its flight, and
// evaluating it from its labels, allocates at most eight lanes of labels
// per body wire (8 x NumWires x LabelSize bytes) beyond the flight, the
// label pairs, the labels and the output bits the caller holds — and nothing at all once
// the kernel is warm. Neither party allocates for the garbler's input
// labels per circuit: both read them from one inputLabels, which a warm
// party does not derive again. The chunks are 2048 ReLU neurons, twice core's
// chunk, and the 2x2 max-pool's 512 windows of four, both at ring width 32.
func TestGCScratchIsBodySized(t *testing.T) {
	for _, c := range []*Circuit{BatchReLUCircuit(32, 2048), BatchMaxPoolCircuit(32, 4, 512, true)} {
		bound := uint64(8 * c.NumWires * LabelSize)
		tb := c.TableBytes()
		msg, pairs := make([]byte, flightBytes(c)), make([]byte, c.NumEvaluator*2*LabelSize)
		bits := make([]byte, c.NumGarbler)
		rng := prg.New(prg.SeedFromInt(3))
		var x inputLabels
		labels := x.upTo(c)
		if n := testing.AllocsPerRun(2, func() { labels = x.upTo(c) }); n != 0 {
			t.Errorf("%d windows: a warm label cache allocates %v times per circuit", c.windows, n)
		}
		var g garbling
		garble := func() {
			if err := g.flight(c, bits, labels, rng, nil, msg, pairs); err != nil {
				t.Fatal(err)
			}
		}
		if got := allocated(garble); got > bound {
			t.Errorf("%d windows: garbling allocated %d bytes, body bound %d", c.windows, got, bound)
		}
		if n := testing.AllocsPerRun(2, garble); n != 0 {
			t.Errorf("%d windows: a warm garbling allocates %v times per circuit", c.windows, n)
		}

		// All-zero garbler bits: the derived labels are the zero labels,
		// and the evaluator's zero labels are its pairs' first halves.
		elabels := make([]byte, 0, c.NumEvaluator*LabelSize)
		for i := 0; i < len(pairs); i += 2 * LabelSize {
			elabels = append(elabels, pairs[i:i+LabelSize]...)
		}
		perm := make([]byte, (c.numOutputs()+7)/8)
		var e evaluating
		evaluate := func() {
			if err := e.evaluate(c, msg[:tb], labels, elabels, perm); err != nil {
				t.Fatal(err)
			}
		}
		if got := allocated(evaluate); got > bound {
			t.Errorf("%d windows: evaluation allocated %d bytes, body bound %d", c.windows, got, bound)
		}
		if n := testing.AllocsPerRun(2, evaluate); n != 0 {
			t.Errorf("%d windows: a warm evaluation allocates %v times per circuit", c.windows, n)
		}
		t.Logf("%d windows of %d body wires: bound %d B, the flat wire array was %d B",
			c.windows, c.NumWires, bound, c.windows*c.NumWires*LabelSize)
	}
}
