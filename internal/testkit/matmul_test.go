package testkit

import (
	"testing"

	"abnn2/internal/core"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
)

// All four secure-matmul backends against the one differential oracle
// (U + V == W*R over the ring): the ABNN2 triplet protocol in each mode
// and the three comparison baselines. A correctness bug in any backend
// — or a drift between a baseline and the protocol it is benchmarked
// against — fails here.

func randWeights(g *prg.PRG, scheme quant.Scheme, mn int) []int64 {
	min, max := scheme.Range()
	W := make([]int64, mn)
	for i := range W {
		W[i] = min + int64(g.Intn(int(max-min+1)))
	}
	return W
}

func TestMatmulBackendABNN2(t *testing.T) {
	cases := []struct {
		name   string
		scheme quant.Scheme
		o      int
		mode   core.Mode
	}{
		{"onebatch-4(2,2)", quant.NewBitScheme(true, 2, 2), 1, core.OneBatch},
		{"naiveN-4(2,2)", quant.NewBitScheme(true, 2, 2), 1, core.MultiBatch},
		{"multibatch-4(2,2)", quant.NewBitScheme(true, 2, 2), 3, core.MultiBatch},
		{"multibatch-ternary", quant.Ternary(), 2, core.MultiBatch},
		{"onebatch-binary", quant.Binary(), 1, core.OneBatch},
		{"multibatch-u3(2,1)", quant.NewBitScheme(false, 2, 1), 2, core.MultiBatch},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rg := ring.New(32)
			g := prg.New(prg.SeedFromInt(101))
			m, n := 4, 5
			W := randWeights(g, tc.scheme, m*n)
			R := g.Mat(rg, n, tc.o)
			if err := CheckMatmul(ABNN2Matmul(tc.scheme, tc.mode), rg, W, m, n, R, 500); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMatmulBackendSecureML(t *testing.T) {
	t.Parallel()
	rg := ring.New(32)
	g := prg.New(prg.SeedFromInt(102))
	m, n, o := 3, 4, 2
	W := make([]int64, m*n)
	for i := range W {
		W[i] = int64(g.Intn(255)) - 127
	}
	R := g.Mat(rg, n, o)
	if err := CheckMatmul(SecureMLMatmul(), rg, W, m, n, R, 501); err != nil {
		t.Fatal(err)
	}
}

func TestMatmulBackendMiniONN(t *testing.T) {
	t.Parallel()
	rg := ring.New(32)
	g := prg.New(prg.SeedFromInt(103))
	m, n, o := 3, 3, 2
	W := make([]int64, m*n)
	for i := range W {
		W[i] = int64(g.Intn(255)) - 127
	}
	R := g.Mat(rg, n, o)
	if err := CheckMatmul(MiniONNMatmul(512), rg, W, m, n, R, 502); err != nil {
		t.Fatal(err)
	}
}

func TestMatmulBackendQuotient(t *testing.T) {
	t.Parallel()
	rg := ring.New(32)
	g := prg.New(prg.SeedFromInt(104))
	m, n := 4, 6
	W := make([]int64, m*n)
	for i := range W {
		W[i] = int64(g.Intn(3)) - 1
	}
	R := g.Mat(rg, n, 1)
	if err := CheckMatmul(QuotientMatmul(), rg, W, m, n, R, 503); err != nil {
		t.Fatal(err)
	}
}

// Satellite: a gamma=1 scheme (one fragment, one OT per weight) is the
// degenerate point of the fragmentation machinery — the payload offsets
// collapse to a single span. OneBatch and MultiBatch — at o = 1, the naive
// Fig. 3 protocol, and above — must all agree with the plaintext product
// there.
func TestMatmulGammaOne(t *testing.T) {
	scheme := quant.NewBitScheme(true, 4) // "4(4)": gamma=1, N=16
	if scheme.Gamma() != 1 {
		t.Fatalf("scheme gamma = %d, want 1", scheme.Gamma())
	}
	for _, rgBits := range []uint{8, 33} {
		rg := ring.New(rgBits)
		g := prg.New(prg.SeedFromInt(uint64(105 + rgBits)))
		m, n := 3, 4
		W := randWeights(g, scheme, m*n)
		for _, tc := range []struct {
			name string
			o    int
			mode core.Mode
		}{
			{"onebatch", 1, core.OneBatch},
			{"naiveN", 1, core.MultiBatch},
			{"multibatch", 2, core.MultiBatch},
		} {
			R := g.Mat(rg, n, tc.o)
			if err := CheckMatmul(ABNN2Matmul(scheme, tc.mode), rg, W, m, n, R, 504); err != nil {
				t.Errorf("ring=%d %s: %v", rgBits, tc.name, err)
			}
		}
	}
}
