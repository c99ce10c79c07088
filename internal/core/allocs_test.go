package core

import (
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
)

// TestTripletAllocationsPerChunk gates the offline kernels' allocation
// count: one 4096-OT chunk may cost each party a fixed number of buffers
// (the u and payload flights, the block's row matrix, per-worker partials
// and pad derivers), never anything per OT. Before the pad derivers the
// same chunk made about 9 allocations per OT, 37 000 in all. The layer
// measured is one chunk long, so the count includes what a layer costs
// once — on the server the run's bookkeeping (its layer table, the two
// cursors, the share slice): 128 for both parties together, 123 before
// the server ran layers as runs.
func TestTripletAllocationsPerChunk(t *testing.T) {
	const perParty = 72
	p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 2), Workers: 2}
	ct, st, _, done := tripletPair(t, p)
	defer done()
	for _, tc := range []struct {
		mode Mode
		o    int
	}{{OneBatch, 1}, {MultiBatch, 1}, {MultiBatch, 16}} {
		sh := MatShape{M: 16, N: 128, O: tc.o}
		if p.NumOTs(sh) != chunkOTs {
			t.Fatalf("shape %+v is %d OTs, want one chunk of %d", sh, p.NumOTs(sh), chunkOTs)
		}
		W := randomWeights(p.Scheme, sh.M*sh.N, 3)
		R := prg.New(prg.SeedFromInt(4)).Mat(p.Ring, sh.N, sh.O)
		// AllocsPerRun counts the whole process, so both parties' kernels
		// are measured together against twice the per-party ceiling.
		allocs := testing.AllocsPerRun(5, func() {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := ct.GenerateClient(sh, R, tc.mode); err != nil {
					t.Error(err)
				}
			}()
			if _, err := st.GenerateServer(sh, W, tc.mode); err != nil {
				t.Error(err)
			}
			wg.Wait()
		})
		t.Logf("%v: %.0f allocations per chunk, both parties", tc.mode, allocs)
		if allocs > 2*perParty {
			t.Errorf("%v: %.0f allocations for one chunk, want <= %d per party", tc.mode, allocs, perParty)
		}
	}
}

// TestReLUAllocationsPerChunk gates the online GC path the same way: one
// 2048-neuron chunk may cost each party a fixed number of buffers — the
// input bit vectors, the batch's child PRG, the label-OT flights and
// blocks, the pipeline's channels, one wire-label array, the flight and
// the received frame, the output — and nothing per gate, per wire or per
// label. Before the word-wide kernel the same chunk made about 200 000
// allocations per party, one per input label.
func TestReLUAllocationsPerChunk(t *testing.T) {
	const perParty = 64
	rg := ring.New(32)
	cn, sn, _, done := nonlinearPair(t, rg)
	defer done()
	cn.SetWorkers(1)
	sn.SetWorkers(1)
	g := prg.New(prg.SeedFromInt(5))
	y1, z1, y0 := g.Vec(rg, reluChunk), g.Vec(rg, reluChunk), g.Vec(rg, reluChunk)
	for _, variant := range []ReLUVariant{ReLUGC, ReLUOptimized} {
		// AllocsPerRun's own warm-up call builds the circuit; it counts
		// both parties together.
		allocs := testing.AllocsPerRun(3, func() {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := cn.ReLUClient(variant, y1, z1); err != nil {
					t.Error(err)
				}
			}()
			if _, err := sn.ReLUServer(variant, y0); err != nil {
				t.Error(err)
			}
			wg.Wait()
		})
		t.Logf("%v: %.0f allocations per chunk, both parties", variant, allocs)
		if allocs > 2*perParty {
			t.Errorf("%v: %.0f allocations for one chunk, want <= %d per party", variant, allocs, perParty)
		}
	}
}
