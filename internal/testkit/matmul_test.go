package testkit

import (
	"fmt"
	"testing"

	"abnn2/internal/core"
	"abnn2/internal/plan"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
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
	if err := CheckMatmul(BaselineMatmul(core.BackendSecureML, 0), rg, W, m, n, R, 501); err != nil {
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
	if err := CheckMatmul(BaselineMatmul(core.BackendMiniONN, 512), rg, W, m, n, R, 502); err != nil {
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
	if err := CheckMatmul(BaselineMatmul(core.BackendQuotient, 0), rg, W, m, n, R, 503); err != nil {
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

// steadyState runs the same layer twice on one generator pair, the way
// consecutive batches of a session do, and returns what crossed the
// client's endpoint during each: the first pass carries the backend's
// lazily-run set-up (ABNN2's ran in the constructor), the second is the
// steady state its Cost prices.
func steadyState(b core.BackendID, p core.Params, sh core.MatShape, W []int64, R *ring.Mat) (first, second int64, err error) {
	var marks [3]transport.Stats
	_, _, err = shares(9,
		func(conn transport.Conn, rng *prg.PRG) (*ring.Mat, error) {
			srv, err := core.NewServerTripletsSeeded(conn, p, 7, rng)
			for i := 0; i < 2 && err == nil; i++ {
				if b == core.BackendABNN2 {
					_, err = srv.GenerateServer(sh, W, core.ModeFor(sh.O))
				} else {
					_, err = srv.GenerateBaseline(b, sh, W)
				}
			}
			return nil, err
		},
		func(conn transport.Conn, rng *prg.PRG) (*ring.Mat, error) {
			conn, meter := transport.MeterEndpoint(conn)
			cli, err := core.NewClientTriplets(conn, p, 7, rng)
			marks[0] = meter.Snapshot()
			for i := 0; i < 2 && err == nil; i++ {
				if b == core.BackendABNN2 {
					_, err = cli.GenerateClient(sh, R, core.ModeFor(sh.O))
				} else {
					_, err = cli.GenerateBaseline(b, sh, R)
				}
				marks[i+1] = meter.Snapshot()
			}
			return nil, err
		})
	return marks[1].Sub(marks[0]).TotalBytes(), marks[2].Sub(marks[1]).TotalBytes(), err
}

// TestBackendTable holds every entry of core's backend table to what the
// rest of the stack does with it, over both payload regimes, a shape inside
// one SecureML round and one across twelve, and a session scheme QUOTIENT
// fits and one it does not:
//
//   - its applicability rule is the one verdict everywhere: Fits, the
//     planner's Validate and its candidate list, both parties'
//     Schedule.Validate, and whether the generators actually run;
//   - its shares reconstruct through the dispatch a session uses;
//   - its Cost is exact: the steady-state bytes on the client's endpoint
//     are CommBits/8, not one more or less.
//
// The set-up a backend runs at its first layer is measured here and not
// priced anywhere yet: 12,481 bytes of base OTs for the two COT baselines,
// the modulus for MiniONN (ROADMAP, cost model). Nor are the rows an
// extension round pads its OT count to a multiple of 8 with, or the bits a
// ring element is padded to whole bytes with: the shapes here have OT
// counts that are multiples of 8 and l = 32. Flights are not asserted:
// Complexity.Flights counts the flights a party waits on, a meter counts
// direction flips.
func TestBackendTable(t *testing.T) {
	const l, keyBits = 32, 256
	rg := ring.New(l)
	setup := map[core.BackendID]int64{core.BackendSecureML: 12481, core.BackendMiniONN: keyBits / 8, core.BackendQuotient: 12481}
	for _, b := range core.Backends() {
		for _, scheme := range []quant.Scheme{quant.Ternary(), quant.NewBitScheme(true, 2, 2)} {
			for _, sh := range []core.MatShape{{M: 4, N: 6, O: 1}, {M: 4, N: 6, O: 4}, {M: 32, N: 96, O: 1}, {M: 32, N: 96, O: 4}} {
				b, scheme, sh := b, scheme, sh
				t.Run(fmt.Sprintf("%s/%s/%dx%dx%d", b, scheme.Name(), sh.M, sh.N, sh.O), func(t *testing.T) {
					t.Parallel()
					g := prg.New(prg.SeedFromInt(106))
					W := randWeights(g, scheme, sh.M*sh.N)
					W[0], W[1] = scheme.Range() // the whole range occurs
					R := g.Mat(rg, sh.N, sh.O)
					lo, hi := scheme.Range()
					fits := b.Fits(sh, lo, hi) == nil

					arch := core.Arch{Frac: 8, SchemeName: scheme.Name(), Layers: []core.LayerSpec{{In: sh.N, Out: sh.M}}}
					in := plan.Input{Arch: arch, RingBits: l, Batch: sh.O, Link: plan.LAN(), MiniONNBits: keyBits}
					p := plan.Uniform(b, 1)
					if got := p.Validate(arch, sh.O) == nil; got != fits {
						t.Errorf("plan.Validate accepts = %v, Fits = %v", got, fits)
					}
					_, est, err := plan.Choose(in)
					if err != nil {
						t.Fatal(err)
					}
					listed := false
					for _, c := range est.Layers[0].Candidates {
						listed = listed || c.Choice.Backend == b
					}
					if listed != fits {
						t.Errorf("planner lists the backend = %v, Fits = %v", listed, fits)
					}
					sched := core.Schedule{{Backend: b}}
					if got := sched.Validate(arch, sh.O, nil) == nil; got != fits {
						t.Errorf("client Schedule.Validate accepts = %v, Fits = %v", got, fits)
					}
					if got := sched.Validate(arch, sh.O, [][]int64{W}) == nil; got != fits {
						t.Errorf("server Schedule.Validate accepts = %v, Fits = %v", got, fits)
					}

					run := BaselineMatmul(b, keyBits)
					if b == core.BackendABNN2 {
						run = ABNN2Matmul(scheme, core.ModeFor(sh.O))
					}
					err = CheckMatmul(run, rg, W, sh.M, sh.N, R, 505)
					if !fits {
						if err == nil {
							t.Error("the generators ran a layer the backend does not fit")
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					first, second, err := steadyState(b, core.Params{Ring: rg, Scheme: scheme, MiniONNBits: keyBits}, sh, W, R)
					if err != nil {
						t.Fatal(err)
					}
					if want := b.Cost(l, keyBits, scheme, sh).CommBits / 8; float64(second) != want {
						t.Errorf("steady state moved %d bytes, Cost says %v", second, want)
					}
					if first-second != setup[b] {
						t.Errorf("set-up moved %d bytes, want %d", first-second, setup[b])
					}
				})
			}
		}
	}
}
