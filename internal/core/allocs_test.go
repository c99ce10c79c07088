package core

import (
	"runtime"
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// TestTripletAllocationsPerChunk gates the offline kernels' allocation
// count: one 4096-OT chunk may cost each party a fixed number of buffers
// (pad derivers, the pool's range bookkeeping), never anything per OT;
// the u and payload flights, the frames they arrive in, the blocks' row
// matrices and the per-worker partials, masks and pad scratch are reused
// from round to round. Before the pad derivers the same chunk made about
// 9 allocations per OT, 37 000 in all. The layer
// measured is one chunk long, so the count includes what a layer costs
// once — on the server the run's bookkeeping (its layer table, the two
// cursors, the share slice, the decomposed weights): 93 for both
// parties together, 105 before the per-worker scratch was kept and 128
// before the row matrices and flights were reused.
func TestTripletAllocationsPerChunk(t *testing.T) {
	const perParty = 50
	p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 2), Workers: 2}
	ct, st, _, done := tripletPair(t, p)
	defer done()
	for _, o := range []int{1, 16} {
		sh := MatShape{M: 16, N: 128, O: o}
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
				if _, err := ct.GenerateClient(sh, R, MultiBatch); err != nil {
					t.Error(err)
				}
			}()
			if _, err := st.GenerateServer(sh, W, MultiBatch); err != nil {
				t.Error(err)
			}
			wg.Wait()
		})
		t.Logf("o=%d: %.0f allocations per chunk, both parties", o, allocs)
		if allocs > 2*perParty {
			t.Errorf("o=%d: %.0f allocations for one chunk, want <= %d per party", o, allocs, perParty)
		}
	}
}

// TestReLUAllocationsPerChunk gates the online GC path the same way: one
// 1024-neuron chunk may cost each party a fixed number of buffers — the
// input bit vectors, the batch's child PRG, the label-OT flights and
// blocks, the pipeline's channels, one wire-label array, the output — and
// nothing per gate, per wire or per label; the flight and the frame it
// arrives in are reused. Before the word-wide kernel the same chunk made
// about 200 000 allocations per party, one per input label.
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

// TestOfflineFlightsRecycled: a multi-batch round moves its u and payload
// flights through frames the receivers have released, not through a new
// frame per flight. The second of two Fig. 4 FC1 batch-32 rounds over a
// metered pipe — the bank's fill unit, 82 MB on the wire — allocates less
// than the bytes it moves; with a frame per flight it allocated more.
func TestOfflineFlightsRecycled(t *testing.T) {
	p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 2), Workers: 1}
	ct, st, meter, done := tripletPair(t, p)
	defer done()
	sh := MatShape{M: 128, N: 784, O: 32}
	W := randomWeights(p.Scheme, sh.M*sh.N, 7)
	R := prg.New(prg.SeedFromInt(8)).Mat(p.Ring, sh.N, sh.O)
	secondRunAllocatesLess(t, meter,
		func() error { _, err := ct.GenerateClient(sh, R, MultiBatch); return err },
		func() error { _, err := st.GenerateServer(sh, W, MultiBatch); return err })
}

// TestOfflineScratchKept: the triplet kernels' per-worker scratch — each
// worker's partial of V or U, the client's mask, the pads of a sub-run —
// is kept on the party from chunk to chunk. The second of two Fig. 4 FC1
// batch-32 rounds at four workers, 49 chunks, makes at most 3,600
// allocations in the whole process (3,170 measured: pad derivers, the
// pool's bookkeeping, the shares). With the scratch made per chunk it
// made 4,245, 22 more a chunk: three buffers per worker and the partials'
// slice on the client, two and the slice on the server. Counts, unlike
// bytes, do not move with how many flight frames the conn could reuse.
func TestOfflineScratchKept(t *testing.T) {
	const limit = 3600
	p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 2), Workers: 4}
	ct, st, _, done := tripletPair(t, p)
	defer done()
	sh := MatShape{M: 128, N: 784, O: 32}
	W := randomWeights(p.Scheme, sh.M*sh.N, 7)
	R := prg.New(prg.SeedFromInt(8)).Mat(p.Ring, sh.N, sh.O)
	run := func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ct.GenerateClient(sh, R, MultiBatch); err != nil {
				t.Error(err)
			}
		}()
		if _, err := st.GenerateServer(sh, W, MultiBatch); err != nil {
			t.Error(err)
		}
		wg.Wait()
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	t.Logf("second round: %d allocations, %d bytes", n, after.TotalAlloc-before.TotalAlloc)
	if n > limit {
		t.Errorf("second FC1 batch-32 round made %d allocations, want at most %d", n, limit)
	}
}

// TestReLUFlightsRecycled is TestOfflineFlightsRecycled for the online
// GC round: the garbler keeps its flight slots from batch to batch and
// the evaluator releases each garbled-material frame, so a second ReLU
// batch allocates less than it moves; with the slots made per batch and
// a frame per flight it allocated half as much again.
func TestReLUFlightsRecycled(t *testing.T) {
	rg := ring.New(32)
	cn, sn, meter, done := nonlinearPair(t, rg)
	defer done()
	cn.SetWorkers(1)
	sn.SetWorkers(1)
	g := prg.New(prg.SeedFromInt(9))
	n := 4 * reluChunk
	y1, z1, y0 := g.Vec(rg, n), g.Vec(rg, n), g.Vec(rg, n)
	secondRunAllocatesLess(t, meter,
		func() error { return cn.ReLUClient(ReLUGC, y1, z1) },
		func() error { _, err := sn.ReLUServer(ReLUGC, y0); return err })
}

// secondRunAllocatesLess runs the two parties' calls together twice and
// fails t unless the second run allocates, in the whole process, fewer
// bytes than meter saw it move.
func secondRunAllocatesLess(t *testing.T, meter *transport.Meter, client, server func() error) {
	t.Helper()
	run := func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := client(); err != nil {
				t.Error(err)
			}
		}()
		if err := server(); err != nil {
			t.Error(err)
		}
		wg.Wait()
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sent := meter.Snapshot()
	run()
	runtime.ReadMemStats(&after)
	moved := meter.Snapshot().Sub(sent).TotalBytes()
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("second run: %d bytes allocated, %d bytes moved", alloc, moved)
	if alloc >= moved {
		t.Errorf("second run allocated %d bytes to move %d: its flights were not recycled", alloc, moved)
	}
}
