package baseline_test

import (
	"testing"

	"abnn2/internal/core"
	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/testkit"
)

// SecureML and QUOTIENT are fixed schemes of the ABNN2 triplet engine, so
// their triplets come from the backend dispatch in core; these run them
// through it and demand U + V == W*R.

func TestSecureMLTriplets(t *testing.T) {
	rg := ring.New(32)
	for _, o := range []int{1, 3} {
		const m, n = 4, 5
		g := prg.New(prg.SeedFromInt(3))
		W := make([]int64, m*n)
		for i := range W {
			W[i] = int64(g.Intn(1<<16)) - (1 << 15) // full-width signed values
		}
		R := g.Mat(rg, n, o)
		if err := testkit.CheckMatmul(testkit.BaselineMatmul(core.BackendSecureML, 0), rg, W, m, n, R, 1); err != nil {
			t.Fatalf("o=%d: %v", o, err)
		}
	}
}

func TestQuotientTriplets(t *testing.T) {
	rg := ring.New(32)
	const m, n = 5, 6
	g := prg.New(prg.SeedFromInt(9))
	W := make([]int64, m*n)
	for i := range W {
		W[i] = int64(g.Intn(3)) - 1
	}
	R := g.Mat(rg, n, 1)
	if err := testkit.CheckMatmul(testkit.BaselineMatmul(core.BackendQuotient, 0), rg, W, m, n, R, 7); err != nil {
		t.Fatal(err)
	}
}
