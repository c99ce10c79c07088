package core

import (
	"fmt"
	"slices"

	"abnn2/internal/baseline"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
)

// Per-layer backend selection. Every matmul backend in the repo produces
// the same object — additive shares U (server) and V (client) with
// U + V = W * R over Z_2^l — so the offline phase of each linear layer
// can run under a different protocol without the online phase noticing:
// the online messages depend only on the shares, never on how they were
// generated. A Schedule fixes that choice per layer; the cost-model
// planner (internal/plan) emits one, and the conformance sweep
// (internal/testkit) locks arbitrary mixes against the plaintext oracle.

// BackendID identifies one secure-matmul offline backend.
type BackendID uint8

const (
	// BackendABNN2 is the paper's 1-out-of-N OT triplet protocol
	// (one-batch or multi-batch picked by ModeFor, as always).
	BackendABNN2 BackendID = iota
	// BackendSecureML is the bitwise correlated-OT triplet baseline.
	BackendSecureML
	// BackendMiniONN is the Paillier additively-homomorphic baseline.
	BackendMiniONN
	// BackendQuotient is the ternary correlated-OT baseline (vector-only,
	// weights in {-1, 0, 1}: its fits rule below).
	BackendQuotient

	numBackends
)

// backend is everything the stack knows about one offline backend; the
// table below holds one per BackendID and is the only place a backend is
// described. The engines build its generators from it (GenerateBaseline),
// Schedule.Validate and the planner ask it whether a layer fits, and the
// planner prices a layer with its cost (internal/plan). The ABNN2 entry
// has no constructors: its generators are ClientTriplets and
// ServerTriplets themselves.
type backend struct {
	name string
	// tag is added to the triplet session's tag for the backend's own
	// OT-extension session, keeping its instances (and random-oracle
	// domains) apart from the triplet and GC sessions on the same
	// connection. MiniONN runs no extension.
	tag uint64
	// fragments says the backend runs under a fragmentation scheme, so a
	// LayerChoice may override the session's.
	fragments bool
	// fits is the backend's applicability rule: why a layer of shape sh
	// whose weights lie in [lo, hi] cannot run on it. nil: any layer can.
	fits func(sh MatShape, lo, hi int64) error
	// client and server set up the backend's generator pair over conn; rng
	// is the party's stream for this backend, Child(name) of its own.
	client func(conn Conn, p Params, session uint64, rng *prg.PRG) (clientGenerator, error)
	server func(conn Conn, p Params, session uint64, rng *prg.PRG) (serverGenerator, error)
	// cost is one layer's steady-state cost as sent, from the constants the
	// protocol itself runs on; keyBits is a Params.MiniONNBits, sc the
	// layer's fragmentation scheme.
	cost func(l uint, keyBits int, sc quant.Scheme, sh MatShape) Complexity
}

// clientGenerator and serverGenerator are the one pair of signatures the
// three baseline generator pairs share: V, resp. U, with U + V = W * R.
type clientGenerator interface {
	GenerateClient(m int, R *ring.Mat) (*ring.Mat, error)
}

type serverGenerator interface {
	GenerateServer(W []int64, m, n, o int) (*ring.Mat, error)
}

var backends = [numBackends]backend{
	BackendABNN2: {
		name:      "abnn2",
		fragments: true,
		cost: func(l uint, _ int, sc quant.Scheme, sh MatShape) Complexity {
			return OfflineComplexity(l, sc, sh)
		},
	},
	BackendSecureML: {
		name: "secureml",
		tag:  0x40,
		client: func(conn Conn, p Params, session uint64, rng *prg.PRG) (clientGenerator, error) {
			return baseline.NewSecureMLClient(conn, p.Ring, session, p.Workers, rng)
		},
		server: func(conn Conn, p Params, session uint64, rng *prg.PRG) (serverGenerator, error) {
			return baseline.NewSecureMLServer(conn, p.Ring, session, p.Workers, rng)
		},
		cost: func(l uint, _ int, _ quant.Scheme, sh MatShape) Complexity {
			return SecureMLComplexity(l, sh)
		},
	},
	BackendMiniONN: {
		name: "minionn",
		client: func(conn Conn, p Params, _ uint64, rng *prg.PRG) (clientGenerator, error) {
			return baseline.NewMiniONNClient(conn, p.Ring, PaillierBits(p.MiniONNBits), p.Workers, rng)
		},
		server: func(conn Conn, p Params, _ uint64, rng *prg.PRG) (serverGenerator, error) {
			return baseline.NewMiniONNServer(conn, p.Ring, p.Workers, rng)
		},
		cost: func(_ uint, keyBits int, _ quant.Scheme, sh MatShape) Complexity {
			return MiniONNComplexity(PaillierBits(keyBits), sh)
		},
	},
	BackendQuotient: {
		name: "quotient",
		tag:  0x41,
		fits: func(sh MatShape, lo, hi int64) error {
			if sh.O != 1 {
				return fmt.Errorf("quotient backend requires o=1, got o=%d", sh.O)
			}
			if lo < -1 || hi > 1 {
				return fmt.Errorf("quotient backend requires ternary weights, got [%d,%d]", lo, hi)
			}
			return nil
		},
		client: func(conn Conn, p Params, session uint64, rng *prg.PRG) (clientGenerator, error) {
			return baseline.NewQuotientClient(conn, p.Ring, session, p.Workers, rng)
		},
		server: func(conn Conn, p Params, session uint64, rng *prg.PRG) (serverGenerator, error) {
			return baseline.NewQuotientServer(conn, p.Ring, session, p.Workers, rng)
		},
		cost: func(l uint, _ int, _ quant.Scheme, sh MatShape) Complexity {
			return QuotientComplexity(l, sh)
		},
	},
}

// PaillierBits resolves a MiniONN key-size setting (Params.MiniONNBits,
// plan.Input.MiniONNBits): 0 means the baseline package's default.
func PaillierBits(bits int) int {
	if bits == 0 {
		return baseline.MiniONNKeyBits
	}
	return bits
}

func (b BackendID) String() string {
	if b.Valid() {
		return backends[b].name
	}
	return fmt.Sprintf("BackendID(%d)", uint8(b))
}

// Valid reports whether b names a known backend.
func (b BackendID) Valid() bool { return b < numBackends }

// Fragments reports whether b runs under a fragmentation scheme that a
// per-layer choice may override (ABNN2 alone; the baselines do not
// fragment).
func (b BackendID) Fragments() bool { return backends[b].fragments }

// Fits reports why b cannot run a layer of shape sh whose weights lie in
// [lo, hi] — the range of the weights themselves where they are known
// (the server), of the session scheme where only that is public (the
// client, the planner) — and nil when it can.
func (b BackendID) Fits(sh MatShape, lo, hi int64) error {
	if fits := backends[b].fits; fits != nil {
		return fits(sh, lo, hi)
	}
	return nil
}

// Cost prices one layer of shape sh on b as sent: bytes, the flights a
// party waits on, OT and Paillier-operation counts, over an l-bit ring,
// under fragmentation scheme sc and a Paillier key of keyBits (0 = the
// default). The backend's once-per-session set-up — base OTs, the public
// key — is not in it (ROADMAP, cost model).
func (b BackendID) Cost(l uint, keyBits int, sc quant.Scheme, sh MatShape) Complexity {
	return backends[b].cost(l, keyBits, sc, sh)
}

// ParseBackend parses a backend name as printed by BackendID.String.
func ParseBackend(s string) (BackendID, error) {
	for b := BackendID(0); b < numBackends; b++ {
		if b.String() == s {
			return b, nil
		}
	}
	return 0, fmt.Errorf("core: unknown backend %q", s)
}

// Backends lists every backend id, in wire order.
func Backends() []BackendID {
	out := make([]BackendID, numBackends)
	for i := range out {
		out[i] = BackendID(i)
	}
	return out
}

// LayerChoice fixes one linear layer's offline backend. Scheme, when
// non-nil, overrides the session fragmentation scheme for the ABNN2
// backend (an alternative η/γ decomposition of the same weight range);
// it must be nil for the baselines, which do not fragment.
type LayerChoice struct {
	Backend BackendID
	Scheme  quant.Scheme
}

// Schedule assigns one LayerChoice per linear layer. A nil Schedule is
// the legacy path — every layer runs ABNN2 under the session scheme —
// and is transcript-identical to sessions that predate scheduling.
type Schedule []LayerChoice

// Validate checks the schedule against the architecture at a batch size:
// one valid choice per layer, scheme overrides only where the backend
// fragments, and every layer fitting its backend (Fits) and its override —
// for the weights it holds on the server, for the session scheme's whole
// range on the client, which holds none (weights is nil there). The
// engines learn the batch size only at Offline and ask about a batch of
// one, the smallest o a layer runs at; a session asks again per batch
// (plan.Validate).
func (s Schedule) Validate(arch Arch, batch int, weights [][]int64) error {
	if s == nil {
		return nil
	}
	if len(s) != len(arch.Layers) {
		return fmt.Errorf("core: schedule has %d layers, architecture has %d", len(s), len(arch.Layers))
	}
	if weights != nil && len(weights) != len(arch.Layers) {
		return fmt.Errorf("core: %d weight sets for %d layers", len(weights), len(arch.Layers))
	}
	session, err := quant.Parse(arch.SchemeName)
	if err != nil {
		return fmt.Errorf("core: session scheme: %w", err)
	}
	for li, ch := range s {
		if !ch.Backend.Valid() {
			return fmt.Errorf("core: layer %d: unknown backend %d", li, uint8(ch.Backend))
		}
		lo, hi := session.Range()
		if weights != nil && len(weights[li]) > 0 {
			lo, hi = slices.Min(weights[li]), slices.Max(weights[li])
		}
		if ch.Scheme != nil {
			if !ch.Backend.Fragments() {
				return fmt.Errorf("core: layer %d: scheme override on non-fragmenting backend %s", li, ch.Backend)
			}
			for f := 0; f < ch.Scheme.Gamma(); f++ {
				if n := ch.Scheme.FragmentN(f); n < 2 || n > 256 {
					return fmt.Errorf("core: layer %d: fragment %d has N=%d, want [2,256]", li, f, n)
				}
			}
			if smin, smax := ch.Scheme.Range(); lo < smin || hi > smax {
				return fmt.Errorf("core: layer %d: weights in [%d,%d] outside scheme %s range", li, lo, hi, ch.Scheme.Name())
			}
		}
		l := arch.Layers[li]
		if err := ch.Backend.Fits(MatShape{M: l.Out, N: l.ColRows(), O: batch * l.Cols()}, lo, hi); err != nil {
			return fmt.Errorf("core: layer %d: %w", li, err)
		}
	}
	return nil
}
