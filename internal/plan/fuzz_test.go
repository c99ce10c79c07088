package plan

import (
	"reflect"
	"strings"
	"testing"

	"abnn2/internal/core"
	"abnn2/internal/quant"
)

// FuzzPlanFromString: the plan's text form is attacker-shaped bytes at
// the server (the plan flight, the serve hello), so arbitrary input must
// never panic core.ParseSchedule, input over MaxPlanBytes is refused, and
// anything accepted has a canonical String — at most MaxPlanBytes long —
// that re-parses to an equal schedule with the same fingerprint and is a
// fixed point of parse∘String: the server compares plans, and the bank
// keys pools, in that canonical form.
func FuzzPlanFromString(f *testing.F) {
	mixed := core.Schedule{
		{Backend: core.BackendABNN2, Scheme: quant.Uniform(2, 4)},
		{Backend: core.BackendMiniONN},
		{Backend: core.BackendSecureML},
	}
	for _, seed := range []string{
		mixed.String(),
		Uniform(core.BackendQuotient, 1).String(),
		Uniform(core.BackendABNN2, core.MaxPlanLayers).String(),
		strings.Repeat(",", core.MaxPlanBytes+1),
		"nosuch,abnn2",
		"abnn2:" + strings.Repeat("2", core.MaxSchemeName+1),
		"abnn2:8(2,2,minionn",
		"abnn2:4)4(,minionn",
		" abnn2 , minionn",
		"abnn2,",
		"",
		"ABP1\x01\x00\x00\x00", // a wire v3 binary plan frame
		"abnn2:8(2, 2,2,2) , minionn",
		"abnn2:08(04,4)",
		"abnn2:u8(4,4)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := core.ParseSchedule(s)
		if err != nil {
			return
		}
		if len(s) > core.MaxPlanBytes {
			t.Fatalf("accepted %d bytes, max %d", len(s), core.MaxPlanBytes)
		}
		text := p.String()
		if len(text) > core.MaxPlanBytes {
			t.Fatalf("canonical form of %d bytes, max %d", len(text), core.MaxPlanBytes)
		}
		re, err := core.ParseSchedule(text)
		if err != nil {
			t.Fatalf("String %q of an accepted plan does not parse: %v", text, err)
		}
		if !reflect.DeepEqual(re, p) {
			t.Fatalf("%q re-parses to %q, want %q", text, re, p)
		}
		if re.String() != text {
			t.Fatalf("String is not a fixed point: %q then %q", text, re.String())
		}
		if re.Fingerprint() != p.Fingerprint() {
			t.Fatalf("%q and its canonical form %q have different fingerprints", s, text)
		}
		if _, uni := p.IsUniform(); uni && len(p) == 0 {
			t.Fatal("empty plan reported uniform")
		}
	})
}

// TestMaxPlanBytesCoversEveryPlan: MaxPlanBytes is derived from the
// longest backend name, so every backend must fit it, and the widest plan
// the other bounds admit must parse within it.
func TestMaxPlanBytesCoversEveryPlan(t *testing.T) {
	perLayer := core.MaxPlanBytes / core.MaxPlanLayers
	for _, b := range core.Backends() {
		if n := len(b.String()) + 1 + core.MaxSchemeName + 1; n > perLayer {
			t.Errorf("backend %s needs %d bytes per layer, MaxPlanBytes allows %d", b, n, perLayer)
		}
	}
	scheme := strings.Repeat("0", core.MaxSchemeName-len("4(4)")) + "4(4)"
	entry := "quotient:" + scheme
	widest := strings.Repeat(entry+",", core.MaxPlanLayers-1) + entry
	if _, err := core.ParseSchedule(widest); err != nil {
		t.Errorf("the widest plan is refused: %v", err)
	}
}
