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
// same chunk made about 9 allocations per OT, 37 000 in all.
func TestTripletAllocationsPerChunk(t *testing.T) {
	const perParty = 64
	p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 2), Workers: 2}
	ct, st, _, done := tripletPair(t, p)
	defer done()
	for _, tc := range []struct {
		mode Mode
		o    int
	}{{OneBatch, 1}, {NaiveN, 1}, {MultiBatch, 16}} {
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
