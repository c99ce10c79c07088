package gc

import (
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

func BenchmarkGarbleReLU256x32(b *testing.B) {
	circ := BatchReLUCircuit(32, 256)
	bits := make([]byte, circ.NumGarbler)
	rng := prg.New(prg.SeedFromInt(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Garble(circ, bits, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(circ.NumAND()), "AND-gates")
}

func BenchmarkEvaluateReLU256x32(b *testing.B) {
	circ := BatchReLUCircuit(32, 256)
	bits := make([]byte, circ.NumGarbler)
	g, err := Garble(circ, bits, prg.New(prg.SeedFromInt(2)))
	if err != nil {
		b.Fatal(err)
	}
	evalLabels := make([]Label, circ.NumEvaluator)
	for i := range evalLabels {
		evalLabels[i] = g.EvalPairs[i][0]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(circ, g.Tables, g.GarblerLabels, evalLabels, g.Decode); err != nil {
			b.Fatal(err)
		}
	}
}

// The 2048x32 kernels run a ReLU circuit of 2048 neurons at 32 bits,
// 192,512 AND gates: two of core's 1024-neuron chunks, and a banked Fig. 4
// request at batch 32 garbles as many gates as four of them. They garble
// in place into a preallocated flight and label pairs, so they time the
// kernel and not Garbled's allocations.

func BenchmarkGarbleReLU2048x32(b *testing.B) {
	circ := BatchReLUCircuit(32, 2048)
	msg, pairs := make([]byte, flightBytes(circ)), make([]byte, circ.NumEvaluator*2*LabelSize)
	bits := make([]byte, circ.NumGarbler)
	rng := prg.New(prg.SeedFromInt(1))
	var x inputLabels
	labels := x.upTo(circ)
	var s garbling
	if err := s.flight(circ, bits, labels, rng, nil, msg, pairs); err != nil { // sizes the kernel's scratch
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.flight(circ, bits, labels, rng, nil, msg, pairs); err != nil {
			b.Fatal(err)
		}
	}
	reportPerAND(b, circ)
}

func BenchmarkEvaluateReLU2048x32(b *testing.B) {
	circ := BatchReLUCircuit(32, 2048)
	g, err := Garble(circ, make([]byte, circ.NumGarbler), prg.New(prg.SeedFromInt(2)))
	if err != nil {
		b.Fatal(err)
	}
	// All-zero inputs: the zero labels are the active ones.
	glabels, elabels := make([]byte, 0, circ.NumGarbler*LabelSize), make([]byte, 0, circ.NumEvaluator*LabelSize)
	for _, l := range g.GarblerLabels {
		glabels = append(glabels, l[:]...)
	}
	for _, p := range g.EvalPairs {
		elabels = append(elabels, p[0][:]...)
	}
	perm := make([]byte, (circ.numOutputs()+7)/8)
	var s evaluating
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.evaluate(circ, g.Tables, glabels, elabels, perm); err != nil {
			b.Fatal(err)
		}
	}
	reportPerAND(b, circ)
}

func reportPerAND(b *testing.B, c *Circuit) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.NumAND()), "ns/AND")
}

// BenchmarkBuildReLUCircuit builds a ReLU circuit of 2048 neurons at 32
// bits: one body, whatever the chunk.
func BenchmarkBuildReLUCircuit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = BatchReLUCircuit(32, 2048)
	}
}

// benchRunBatch measures a full garble+evaluate RunBatch round trip over
// an in-process pipe at a fixed worker count; the Workers1 vs Workers8
// ratio is the batch-garbling speedup quoted in EXPERIMENTS.md.
func benchRunBatch(b *testing.B, workers int) {
	ca, cb := transport.Pipe()
	defer ca.Close()
	g, e, gerr, eerr := newParties(ca, cb)
	if gerr != nil || eerr != nil {
		b.Fatalf("setup: %v %v", gerr, eerr)
	}
	g.SetWorkers(workers)
	e.SetWorkers(workers)
	const batch = 8
	circ := BatchReLUCircuit(32, 256)
	circs := make([]*Circuit, batch)
	gbits := make([][]byte, batch)
	ebits := make([][]byte, batch)
	for i := range circs {
		circs[i] = circ
		gbits[i] = make([]byte, circ.NumGarbler)
		ebits[i] = make([]byte, circ.NumEvaluator)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var inner sync.WaitGroup
		inner.Add(1)
		go func() {
			defer inner.Done()
			if err := g.RunBatch(circs, gbits); err != nil {
				b.Error(err)
			}
		}()
		if _, err := e.RunBatch(circs, ebits); err != nil {
			b.Fatal(err)
		}
		inner.Wait()
	}
	b.ReportMetric(float64(batch*circ.NumAND()), "AND-gates")
}

func BenchmarkRunBatchReLUWorkers1(b *testing.B) { benchRunBatch(b, 1) }
func BenchmarkRunBatchReLUWorkers8(b *testing.B) { benchRunBatch(b, 8) }
