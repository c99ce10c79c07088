package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"abnn2/internal/baseline"
	"abnn2/internal/quant"
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
	// BackendABNN2 is the paper's 1-out-of-N OT triplet protocol under
	// the session's fragmentation scheme or a per-layer override.
	BackendABNN2 BackendID = iota
	// BackendSecureML is the bitwise OT triplet baseline: the ABNN2
	// engine under quant.SecureML, one 1-out-of-2 OT per weight bit.
	BackendSecureML
	// BackendMiniONN is the Paillier additively-homomorphic baseline.
	BackendMiniONN
	// BackendQuotient is the ternary OT baseline: the ABNN2 engine under
	// quant.Quotient, weights in {-1, 0, 1} (its fits rule below).
	BackendQuotient

	numBackends
)

// backend is everything the stack knows about one offline backend; the
// table below holds one per BackendID and is the only place a backend is
// described. GenerateLayer runs a layer from it (layerScheme: the scheme
// of a triplet backend, none for MiniONN), Schedule.Validate and the
// planner ask it whether a layer fits, and the planner prices a layer
// with its cost (internal/plan).
type backend struct {
	name string
	// fragments says the backend runs the triplet engine under a
	// fragmentation scheme, the session's unless a LayerChoice overrides
	// it.
	fragments bool
	// scheme is the fixed scheme the triplet engine runs the backend
	// under over an l-bit ring; a LayerChoice cannot override it. The
	// two paper baselines this covers are points of equation 2.
	scheme func(l uint) quant.Scheme
	// fits is the backend's applicability rule: why a layer whose weights
	// lie in [lo, hi] cannot run on it. nil: any layer can.
	fits func(lo, hi int64) error
	// cost is one layer's steady-state cost as sent, from the constants the
	// protocol itself runs on; keyBits is a Params.MiniONNBits, sc the
	// layer's fragmentation scheme.
	cost func(l uint, keyBits int, sc quant.Scheme, sh MatShape) Complexity
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
		name:   "secureml",
		scheme: quant.SecureML,
		cost: func(l uint, _ int, _ quant.Scheme, sh MatShape) Complexity {
			return SecureMLComplexity(l, sh)
		},
	},
	BackendMiniONN: {
		name: "minionn",
		cost: func(_ uint, keyBits int, _ quant.Scheme, sh MatShape) Complexity {
			return MiniONNComplexity(PaillierBits(keyBits), sh)
		},
	},
	BackendQuotient: {
		name:   "quotient",
		scheme: func(uint) quant.Scheme { return quant.Quotient() },
		fits: func(lo, hi int64) error {
			if lo < -1 || hi > 1 {
				return fmt.Errorf("quotient backend requires ternary weights, got [%d,%d]", lo, hi)
			}
			return nil
		},
		cost: func(l uint, _ int, _ quant.Scheme, sh MatShape) Complexity {
			return QuotientComplexity(l, sh)
		},
	},
}

// layerScheme returns the scheme the triplet engine runs a layer of
// choice ch under — the backend's fixed one, else ch's override, else the
// session's — and false for a backend that runs no triplets (MiniONN) or
// no backend at all.
func (p Params) layerScheme(ch LayerChoice) (quant.Scheme, bool) {
	if !ch.Backend.Valid() {
		return nil, false
	}
	switch e := &backends[ch.Backend]; {
	case e.scheme != nil:
		return e.scheme(p.Ring.Bits()), true
	case !e.fragments:
		return nil, false
	case ch.Scheme != nil:
		return ch.Scheme, true
	}
	return p.Scheme, true
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
// per-layer choice may override (ABNN2 alone; the baselines' schemes are
// fixed).
func (b BackendID) Fragments() bool { return backends[b].fragments }

// Fits reports why b cannot run a layer whose weights lie in [lo, hi] —
// the range of the weights themselves where they are known (the server),
// of the session scheme where only that is public (the client, the
// planner) — and nil when it can. No rule reads the layer's shape or the
// batch size, so a plan that fits a model fits it at every batch.
func (b BackendID) Fits(lo, hi int64) error {
	if fits := backends[b].fits; fits != nil {
		return fits(lo, hi)
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
// it must be nil for the baselines, whose schemes are fixed.
type LayerChoice struct {
	Backend BackendID
	Scheme  quant.Scheme
}

// String renders the choice as one entry of the plan text form: the
// backend name, then ":" and the override's name when there is one.
func (c LayerChoice) String() string {
	if c.Scheme == nil {
		return c.Backend.String()
	}
	return c.Backend.String() + ":" + c.Scheme.Name()
}

// Schedule assigns one LayerChoice per linear layer: the per-layer
// protocol plan, from the planner (internal/plan) through the wire, the
// bank's pool key and the engines. A nil Schedule is no plan — every
// layer runs ABNN2 under the session scheme — and is transcript-identical
// to sessions that predate scheduling.
type Schedule []LayerChoice

// Text-form bounds. The plan's text form is attacker-shaped bytes at the
// server (the plan flight, the serve hello), so ParseSchedule enforces
// every limit before any allocation proportional to the peer's claim.
const (
	// MaxPlanLayers bounds the per-plan layer count (far above any real
	// model; a plan claiming more is rejected, not truncated).
	MaxPlanLayers = 1024
	// MaxSchemeName bounds one scheme designation's byte length.
	MaxSchemeName = 64
	// maxBackendName is the longest backend name ("quotient", "secureml").
	maxBackendName = 8
	// MaxPlanBytes bounds the whole text form: MaxPlanLayers entries, each
	// the longest backend name, ':', a MaxSchemeName scheme and a ','.
	MaxPlanBytes = MaxPlanLayers * (maxBackendName + 1 + MaxSchemeName + 1)
)

// String renders the schedule in its one, canonical encoding, e.g.
// "abnn2,abnn2:4(4),minionn": what the tools print, what the plan flight
// and the serve hello carry, what a required plan is compared in, and
// what ParseSchedule and the -plan flag take back.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}

// Fingerprint returns a short stable identifier of the canonical text
// form, used to key banked correlations ("plan:<fingerprint>" in a bank
// key's Backend) so a pool only ever serves the schedule it was generated
// under, however the plan was spelled.
func (s Schedule) Fingerprint() string {
	sum := sha256.Sum256([]byte(s.String()))
	return hex.EncodeToString(sum[:8])
}

// IsUniform reports whether every layer runs the same backend with no
// scheme override, and which backend that is.
func (s Schedule) IsUniform() (BackendID, bool) {
	if len(s) == 0 {
		return 0, false
	}
	for _, c := range s {
		if c.Backend != s[0].Backend || c.Scheme != nil {
			return 0, false
		}
	}
	return s[0].Backend, true
}

// ParseSchedule parses a plan's text form: comma-separated backend names,
// each optionally ":scheme"-suffixed. A scheme designation keeps the
// commas inside its parentheses ("abnn2:8(2,2,2,2),minionn" is two
// layers). It is the one parser of plans, peer-sent ones included, and
// the one place their schemes are parsed: input over MaxPlanBytes is
// refused before anything is split, and the split stops at MaxPlanLayers.
// Any spelling quant.Parse accepts ("8(2, 2,2,2)", "08(4,4)") is the same
// schedule as the canonical one String prints. The result is not checked
// against an architecture; Validate does that.
func ParseSchedule(text string) (Schedule, error) {
	if len(text) > MaxPlanBytes {
		return nil, fmt.Errorf("core: plan of %d bytes, max %d", len(text), MaxPlanBytes)
	}
	var parts []string
	depth, start := 0, 0
	for i, r := range text {
		switch {
		case r == '(':
			depth++
		case r == ')':
			depth--
		case r == ',' && depth == 0:
			if len(parts) == MaxPlanLayers-1 {
				return nil, fmt.Errorf("core: plan of more than %d layers", MaxPlanLayers)
			}
			parts = append(parts, text[start:i])
			start = i + 1
		}
	}
	parts = append(parts, text[start:])
	s := make(Schedule, len(parts))
	for i, part := range parts {
		name, scheme, override := strings.Cut(part, ":")
		id, err := ParseBackend(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("core: plan layer %d: %w", i, err)
		}
		s[i].Backend = id
		if !override {
			continue
		}
		if len(scheme) > MaxSchemeName {
			return nil, fmt.Errorf("core: plan layer %d: scheme name of %d bytes, max %d", i, len(scheme), MaxSchemeName)
		}
		if s[i].Scheme, err = quant.Parse(strings.TrimSpace(scheme)); err != nil {
			return nil, fmt.Errorf("core: plan layer %d: %w", i, err)
		}
	}
	return s, nil
}

// Validate checks the schedule against the architecture: one valid
// choice per layer, scheme overrides only where the backend fragments,
// and every layer fitting its backend (Fits) and its override — for the
// weights it holds on the server, for the session scheme's whole range on
// the client, which holds none (weights is nil there). Nothing it checks
// depends on the batch size: a client checks its plan once, at Dial, and a
// server checks each plan frame it is sent — over the public range first,
// so a refusal never turns on the private weights.
func (s Schedule) Validate(arch Arch, weights [][]int64) error {
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
		if err := ch.Backend.Fits(lo, hi); err != nil {
			return fmt.Errorf("core: layer %d: %w", li, err)
		}
	}
	return nil
}
