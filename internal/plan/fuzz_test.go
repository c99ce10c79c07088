package plan

import (
	"reflect"
	"strings"
	"testing"

	"abnn2/internal/core"
)

// FuzzPlanFromString: the plan's text form is attacker-shaped bytes at
// the server (the plan flight, the serve hello), so arbitrary input must
// never panic the parser, input over MaxPlanBytes is refused, and
// anything accepted re-parses from its String to an equal plan whose
// String is a fixed point: the server compares plans in that canonical
// form.
func FuzzPlanFromString(f *testing.F) {
	mixed := &Plan{Layers: []Choice{
		{Backend: core.BackendABNN2, Scheme: "8(2,2,2,2)"},
		{Backend: core.BackendMiniONN},
		{Backend: core.BackendSecureML},
	}}
	for _, seed := range []string{
		mixed.String(),
		Uniform(core.BackendQuotient, 1).String(),
		Uniform(core.BackendABNN2, MaxLayers).String(),
		strings.Repeat(",", MaxPlanBytes+1),
		"nosuch,abnn2",
		"abnn2:" + strings.Repeat("2", MaxSchemeName+1),
		"abnn2:8(2,2,minionn",
		"abnn2:4)4(,minionn",
		" abnn2 , minionn",
		"abnn2,",
		"",
		"ABP1\x01\x00\x00\x00", // a wire v3 binary plan frame
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := FromString(s)
		if err != nil {
			return
		}
		if len(s) > MaxPlanBytes {
			t.Fatalf("accepted %d bytes, max %d", len(s), MaxPlanBytes)
		}
		text := p.String()
		re, err := FromString(text)
		if err != nil {
			t.Fatalf("String %q of an accepted plan does not parse: %v", text, err)
		}
		if !reflect.DeepEqual(re, p) {
			t.Fatalf("%q re-parses to %q, want %q", text, re, p)
		}
		if re.String() != text {
			t.Fatalf("String is not a fixed point: %q then %q", text, re.String())
		}
		_ = p.Fingerprint()
		if _, uni := p.IsUniform(); uni && len(p.Layers) == 0 {
			t.Fatal("empty plan reported uniform")
		}
	})
}

// TestMaxPlanBytesCoversEveryPlan: MaxPlanBytes is derived from the
// longest backend name, so every backend must fit it, and the widest plan
// the other bounds admit must print within it.
func TestMaxPlanBytesCoversEveryPlan(t *testing.T) {
	for _, b := range core.Backends() {
		if len(b.String()) > maxBackendName {
			t.Errorf("backend %s is longer than maxBackendName %d", b, maxBackendName)
		}
	}
	widest := &Plan{Layers: make([]Choice, MaxLayers)}
	for i := range widest.Layers {
		widest.Layers[i] = Choice{Backend: core.BackendQuotient, Scheme: strings.Repeat("2", MaxSchemeName)}
	}
	if _, err := FromString(widest.String()); err != nil {
		t.Errorf("the widest plan is refused: %v", err)
	}
}
