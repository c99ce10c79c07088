package plan

import (
	"reflect"
	"strings"
	"testing"

	"abnn2/internal/core"
)

// TestTextFormRoundTrips: a plan has one textual form, and what String
// prints FromString takes back — scheme overrides included, whose
// designations carry commas of their own.
func TestTextFormRoundTrips(t *testing.T) {
	for _, p := range []*Plan{
		Uniform(core.BackendQuotient, 1),
		Uniform(core.BackendABNN2, 3),
		{Layers: []Choice{
			{Backend: core.BackendABNN2, Scheme: "8(2,2,2,2)"},
			{Backend: core.BackendABNN2, Scheme: "4(4)"},
			{Backend: core.BackendMiniONN},
			{Backend: core.BackendSecureML},
		}},
	} {
		got, err := FromString(p.String())
		if err != nil {
			t.Fatalf("FromString(%q): %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("FromString(%q) = %q", p, got)
		}
	}
	for _, bad := range []string{"", "abnn2,", "abnn2,,minionn", "nosuch", "abnn2:4(4),nosuch",
		strings.Repeat("abnn2,", MaxLayers) + "abnn2", strings.Repeat(" ", MaxPlanBytes) + "abnn2"} {
		if p, err := FromString(bad); err == nil {
			t.Errorf("FromString(%q) = %q, want an error", bad, p)
		}
	}
}

// TestFromFlagForms: -plan takes auto, one entry for every layer, or the
// plan as the tools print it; a plan the model cannot run is refused.
func TestFromFlagForms(t *testing.T) {
	in := refInput(WAN())
	auto, _, err := Choose(in)
	if err != nil {
		t.Fatal(err)
	}
	for val, want := range map[string]string{
		"auto":                 auto.String(),
		auto.String():          auto.String(),
		"secureml":             "secureml,secureml",
		"abnn2:4(4)":           "abnn2:4(4),abnn2:4(4)",
		"abnn2,minionn":        "abnn2,minionn",
		"abnn2:4(2,2),minionn": "abnn2:4(2,2),minionn",
	} {
		p, est, err := FromFlag(val, in)
		if err != nil {
			t.Errorf("-plan %s: %v", val, err)
			continue
		}
		if p.String() != want {
			t.Errorf("-plan %s resolved to %s, want %s", val, p, want)
		}
		if est == nil || len(est.Layers) != len(p.Layers) {
			t.Errorf("-plan %s: no per-layer estimate", val)
		}
	}
	if p, est, err := FromFlag("", in); p != nil || est != nil || err != nil {
		t.Errorf("empty -plan = %v, %v, %v, want no plan", p, est, err)
	}
	for _, bad := range []string{"abnn2,minionn,secureml", "quotient", "minionn:4(4)", "@plan.json"} {
		if p, _, err := FromFlag(bad, in); err == nil {
			t.Errorf("-plan %s accepted as %s", bad, p)
		}
	}
}
