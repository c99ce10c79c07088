package plan

import (
	"reflect"
	"strings"
	"testing"

	"abnn2/internal/core"
	"abnn2/internal/quant"
)

// TestTextFormRoundTrips: a plan has one textual form, and what String
// prints core.ParseSchedule takes back — scheme overrides included, whose
// designations carry commas of their own; any other spelling of a plan
// parses to the same schedule, whose String is the canonical one.
func TestTextFormRoundTrips(t *testing.T) {
	for _, p := range []core.Schedule{
		Uniform(core.BackendQuotient, 1),
		Uniform(core.BackendABNN2, 3),
		{
			{Backend: core.BackendABNN2, Scheme: quant.Uniform(2, 4)},
			{Backend: core.BackendABNN2, Scheme: quant.Uniform(4, 1)},
			{Backend: core.BackendMiniONN},
			{Backend: core.BackendSecureML},
		},
		{
			{Backend: core.BackendABNN2, Scheme: quant.NewBitScheme(false, 4, 4)},
			{Backend: core.BackendABNN2, Scheme: quant.Binary()},
			{Backend: core.BackendABNN2, Scheme: quant.Ternary()},
		},
	} {
		got, err := core.ParseSchedule(p.String())
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("ParseSchedule(%q) = %q", p, got)
		}
	}
	for text, canonical := range map[string]string{
		"abnn2:8(2, 2,2,2),minionn":   "abnn2:8(2,2,2,2),minionn",
		" abnn2 : 08(04,4) ,secureml": "abnn2:8(4,4),secureml",
		"abnn2:u8(4,4)":               "abnn2:u8(4,4)",
		"abnn2:binary,abnn2:ternary":  "abnn2:binary,abnn2:ternary",
	} {
		p, err := core.ParseSchedule(text)
		if err != nil {
			t.Errorf("ParseSchedule(%q): %v", text, err)
			continue
		}
		want, _ := core.ParseSchedule(canonical)
		if p.String() != canonical || p.Fingerprint() != want.Fingerprint() {
			t.Errorf("ParseSchedule(%q) = %q (fingerprint %s), want %q (%s)", text, p, p.Fingerprint(), canonical, want.Fingerprint())
		}
	}
	for _, bad := range []string{"", "abnn2,", "abnn2,,minionn", "nosuch", "abnn2:4(4),nosuch", "abnn2:", "abnn2:9(9)",
		strings.Repeat("abnn2,", core.MaxPlanLayers) + "abnn2", strings.Repeat(" ", core.MaxPlanBytes) + "abnn2"} {
		if p, err := core.ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) = %q, want an error", bad, p)
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
		"auto":                  auto.String(),
		auto.String():           auto.String(),
		"secureml":              "secureml,secureml",
		"abnn2:4(4)":            "abnn2:4(4),abnn2:4(4)",
		"abnn2,minionn":         "abnn2,minionn",
		"abnn2:4(2,2),minionn":  "abnn2:4(2,2),minionn",
		"abnn2:4(2, 2),minionn": "abnn2:4(2,2),minionn",
	} {
		p, est, err := FromFlag(val, in)
		if err != nil {
			t.Errorf("-plan %s: %v", val, err)
			continue
		}
		if p.String() != want {
			t.Errorf("-plan %s resolved to %s, want %s", val, p, want)
		}
		if est == nil || len(est.Layers) != len(p) {
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
