// Package plan implements the cost-model-driven per-layer protocol
// planner. Given a model's public architecture, its quantization scheme,
// and link parameters, it evaluates the analytic Complexity formulas
// (internal/core) per backend per layer — communication and compute,
// priced under the link model — and emits a Plan: one (backend, η/γ
// decomposition) choice per linear layer minimizing predicted
// end-to-end cost.
//
// Correctness does not depend on the plan: every backend produces the
// same additive triplet shares, so any plan yields bit-identical
// predictions (the conformance sweep in internal/testkit locks this).
// The plan only moves where the offline bytes and round trips are
// spent, which is why the client may propose one and the server only
// validates feasibility, never utility.
package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"abnn2/internal/core"
	"abnn2/internal/quant"
)

// Text-form bounds. The plan's text form is attacker-shaped bytes at the
// server (the plan flight, the serve hello), so FromString enforces
// every limit before any allocation proportional to the peer's claim.
const (
	// MaxLayers bounds the per-plan layer count (far above any real
	// model; a plan claiming more is rejected, not truncated).
	MaxLayers = 1024
	// MaxSchemeName bounds one scheme designation's byte length.
	MaxSchemeName = 64
	// maxBackendName is the longest backend name ("quotient", "secureml").
	maxBackendName = 8
	// MaxPlanBytes bounds the whole text form: MaxLayers entries, each the
	// longest backend name, ':', a MaxSchemeName scheme and a ','.
	MaxPlanBytes = MaxLayers * (maxBackendName + 1 + MaxSchemeName + 1)
)

// Choice fixes one layer's offline backend. Scheme, when non-empty, is
// a quant designation overriding the session fragmentation scheme; it
// is only meaningful for the ABNN2 backend (the baselines do not
// fragment) and must quantize the same weight range.
type Choice struct {
	Backend core.BackendID
	Scheme  string
}

// Plan assigns one Choice per linear layer of a model.
type Plan struct {
	Layers []Choice
}

// Uniform builds the plan running every one of n layers on backend b
// under the session scheme.
func Uniform(b core.BackendID, n int) *Plan {
	p := &Plan{Layers: make([]Choice, n)}
	for i := range p.Layers {
		p.Layers[i] = Choice{Backend: b}
	}
	return p
}

// IsUniform reports whether every layer runs the same backend with no
// scheme override, and which backend that is.
func (p *Plan) IsUniform() (core.BackendID, bool) {
	if len(p.Layers) == 0 {
		return 0, false
	}
	b := p.Layers[0].Backend
	for _, c := range p.Layers {
		if c.Backend != b || c.Scheme != "" {
			return 0, false
		}
	}
	return b, true
}

// String renders the plan in its one encoding, e.g.
// "abnn2,abnn2:4(4),minionn": what the tools print, what the plan flight
// and the serve hello carry, and what FromString and the -plan flag take
// back.
func (p *Plan) String() string {
	parts := make([]string, len(p.Layers))
	for i, c := range p.Layers {
		parts[i] = c.Backend.String()
		if c.Scheme != "" {
			parts[i] += ":" + c.Scheme
		}
	}
	return strings.Join(parts, ",")
}

// Fingerprint returns a short stable identifier of the plan's text form,
// used to key banked correlations ("plan:<fingerprint>" in
// BankKey.Backend) so a pool only ever serves the schedule it was
// generated under.
func (p *Plan) Fingerprint() string {
	sum := sha256.Sum256([]byte(p.String()))
	return hex.EncodeToString(sum[:8])
}

// Schedule lowers the plan to the core execution form, parsing scheme
// overrides. It does not validate against an architecture; pair with
// Validate (or core.Schedule.Validate) first on untrusted input.
func (p *Plan) Schedule() (core.Schedule, error) {
	s := make(core.Schedule, len(p.Layers))
	for i, c := range p.Layers {
		s[i].Backend = c.Backend
		if c.Scheme != "" {
			sc, err := quant.Parse(c.Scheme)
			if err != nil {
				return nil, fmt.Errorf("plan: layer %d: %w", i, err)
			}
			s[i].Scheme = sc
		}
	}
	return s, nil
}

// Validate checks the plan against a public architecture at a batch size:
// scheme overrides that parse, then everything core.Schedule.Validate
// checks on the client — layer count, each layer fitting its backend at
// this batch's o (QUOTIENT is vector-only, so batches above 1 reject it)
// and its override, over the session scheme's weight range. Checks against
// the weights themselves happen server-side in ServerEngine.SetSchedule,
// which holds them.
func (p *Plan) Validate(arch core.Arch, batch int) error {
	sched, err := p.Schedule()
	if err != nil {
		return err
	}
	return sched.Validate(arch, batch, nil)
}

// FromString parses the String form back into a plan: comma-separated
// backend names, each optionally ":scheme"-suffixed. A scheme designation
// keeps the commas inside its parentheses ("abnn2:8(2,2,2,2),minionn" is
// two layers). It is the one parser of peer-sent plans: input over
// MaxPlanBytes is refused before anything is split, and the split stops
// at MaxLayers.
func FromString(s string) (*Plan, error) {
	if len(s) > MaxPlanBytes {
		return nil, fmt.Errorf("plan: %d bytes, max %d", len(s), MaxPlanBytes)
	}
	var parts []string
	depth, start := 0, 0
	for i, r := range s {
		switch {
		case r == '(':
			depth++
		case r == ')':
			depth--
		case r == ',' && depth == 0:
			if len(parts) == MaxLayers-1 {
				return nil, fmt.Errorf("plan: more than %d layers", MaxLayers)
			}
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	parts = append(parts, s[start:])
	p := &Plan{Layers: make([]Choice, len(parts))}
	for i, part := range parts {
		name, scheme, _ := strings.Cut(part, ":")
		id, err := core.ParseBackend(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("plan: layer %d: %w", i, err)
		}
		if len(scheme) > MaxSchemeName {
			return nil, fmt.Errorf("plan: layer %d: scheme name %d bytes, max %d", i, len(scheme), MaxSchemeName)
		}
		p.Layers[i] = Choice{Backend: id, Scheme: scheme}
	}
	return p, nil
}
