package testkit

import (
	"fmt"
	"strings"
	"testing"

	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/plan"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// All four secure-matmul backends against the one differential oracle
// (U + V == W*R over the ring): the ABNN2 triplet protocol at o = 1 and
// above, and the three comparison baselines. A correctness bug in any backend
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
		name    string
		scheme  quant.Scheme
		o       int
		rRows   int    // rows of R; 0 = n, the rows W's columns need
		wantErr string // "" = the shares must reconstruct W*R
	}{
		{"onebatch-4(2,2)", quant.NewBitScheme(true, 2, 2), 1, 0, ""},
		{"multibatch-4(2,2)", quant.NewBitScheme(true, 2, 2), 3, 0, ""},
		{"multibatch-ternary", quant.Ternary(), 2, 0, ""},
		{"onebatch-binary", quant.Binary(), 1, 0, ""},
		{"multibatch-u3(2,1)", quant.NewBitScheme(false, 2, 1), 2, 0, ""},
		// The client refuses R first; the server only sees the hang-up.
		{"client-cause-reported", quant.NewBitScheme(true, 2, 2), 1, 6, "client: core: R is 6x1, want 5x1"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rg := ring.New(32)
			g := prg.New(prg.SeedFromInt(101))
			m, n := 4, 5
			W := randWeights(g, tc.scheme, m*n)
			rRows := n
			if tc.rRows != 0 {
				rRows = tc.rRows
			}
			R := g.Mat(rg, rRows, tc.o)
			err := CheckMatmul(ABNN2Matmul(tc.scheme), rg, W, m, n, R, 500)
			if tc.wantErr == "" && err != nil {
				t.Fatal(err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("err = %v, want it to name the client's cause %q", err, tc.wantErr)
			}
		})
	}
}

// SecureML and QUOTIENT, the two baselines that are fixed schemes of the
// triplet engine, run through the backend dispatch over every conformance
// ring width at o = 1 and 4. SecureML's weights span the whole signed
// l-bit range, so each of its l fragments takes both choices, and include
// the ends of int64, which it reads modulo 2^l as the ring does.
func TestMatmulBackendSecureML(t *testing.T) {
	matmulTripletBaseline(t, core.BackendSecureML, func(g *prg.PRG, l uint, W []int64) {
		for i := range W {
			W[i] = int64(g.Uint64()<<(64-l)) >> (64 - l) // sign-extended l bits
		}
		W[0], W[1] = quant.SecureML(l).Range()
	})
}

func TestMatmulBackendQuotient(t *testing.T) {
	matmulTripletBaseline(t, core.BackendQuotient, func(g *prg.PRG, _ uint, W []int64) {
		copy(W, randWeights(g, quant.Quotient(), len(W)))
	})
}

func matmulTripletBaseline(t *testing.T, b core.BackendID, fill func(g *prg.PRG, l uint, W []int64)) {
	for _, l := range RingWidths {
		for _, o := range []int{1, 4} {
			l, o := l, o
			t.Run(fmt.Sprintf("l=%d/o=%d", l, o), func(t *testing.T) {
				t.Parallel()
				rg := ring.New(l)
				g := prg.New(prg.SeedFromInt(uint64(102 + l)))
				m, n := 3, 5
				W := make([]int64, m*n)
				fill(g, l, W)
				R := g.Mat(rg, n, o)
				if err := CheckMatmul(BaselineMatmul(b, 0), rg, W, m, n, R, 501); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestQuotientRejectsNonTernary: a weight outside {-1, 0, 1} is the
// server's error before it extends a single OT of the layer.
func TestQuotientRejectsNonTernary(t *testing.T) {
	rg := ring.New(32)
	R := prg.New(prg.SeedFromInt(104)).Mat(rg, 2, 1)
	err := CheckMatmul(BaselineMatmul(core.BackendQuotient, 0), rg, []int64{1, 2}, 1, 2, R, 503)
	if err == nil || !strings.Contains(err.Error(), "server: quant: weight 1: quant: weight 2 is not ternary") {
		t.Fatalf("err = %v, want the server's refusal of weight 2", err)
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

// Satellite: a gamma=1 scheme (one fragment, one OT per weight) is the
// degenerate point of the fragmentation machinery — the payload offsets
// collapse to a single span. o = 1 and o = 2 must both agree with the
// plaintext product there.
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
		for _, o := range []int{1, 2} {
			R := g.Mat(rg, n, o)
			if err := CheckMatmul(ABNN2Matmul(scheme), rg, W, m, n, R, 504); err != nil {
				t.Errorf("ring=%d o=%d: %v", rgBits, o, err)
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
// rest of the stack does with it, over o = 1 and o = 4, a shape inside one
// extension round and one across many (SecureML's 32x96 at l = 32 is 24
// rounds, two windows), and a session scheme QUOTIENT fits and one it does
// not:
//
//   - its applicability rule is the one verdict everywhere: Fits, the
//     planner's Validate and its candidate list, both parties'
//     Schedule.Validate, and whether the generators actually run;
//   - its shares reconstruct through the dispatch a session uses;
//   - its Cost is exact: the steady-state bytes on the client's endpoint
//     are CommBits/8, not one more or less.
//
// The set-up a backend runs at its first layer is measured here and not
// priced anywhere yet: the modulus for MiniONN (ROADMAP, cost model).
// SecureML and QUOTIENT run none: their N = 2 code is a prefix of the
// session scheme's, whose base OTs ran with the generators. Nor are the rows an
// extension round pads its OT count to a multiple of 8 with, or the bits a
// ring element is padded to whole bytes with: the shapes here have OT
// counts that are multiples of 8 and l = 32. Flights are not asserted:
// Complexity.Flights counts the flights a party waits on, a meter counts
// direction flips.
func TestBackendTable(t *testing.T) {
	const l, keyBits = 32, 256
	rg := ring.New(l)
	setup := map[core.BackendID]int64{core.BackendMiniONN: keyBits / 8}
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

					arch := core.Arch{Frac: 8, SchemeName: scheme.Name(), Layers: []nn.Shape{{In: sh.N, Out: sh.M}}}
					in := plan.Input{Arch: arch, RingBits: l, Batch: sh.O, Link: plan.LAN(), MiniONNBits: keyBits}
					p := plan.Uniform(b, 1)
					if got := p.Validate(arch, sh.O, nil) == nil; got != fits {
						t.Errorf("Schedule.Validate accepts = %v, Fits = %v", got, fits)
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
						run = ABNN2Matmul(scheme)
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
