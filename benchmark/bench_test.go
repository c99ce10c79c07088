package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the tables in the source say the same thing, within
// the limits the driver sets on the file.
func TestContractMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the source's default is %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the source", len(c.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range c.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v differs from the source's %q", i, w, workloads[i].Name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) || len(c.PerLayer) > 128 {
		t.Fatalf("%d+%d metrics in BENCHMARK.json, %d+%d in the source",
			len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range c.EndToEnd {
		unique(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v differs from the source's %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for i, m := range c.PerLayer {
		unique(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: %+v differs from the source's %+v", i, m, d)
		}
		if d.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it moves", d.Name)
		}
	}
}

// The serve_churn workload end to end in seconds, untraced and traced:
// every request correct, every metric of both tables reported, the
// seeded wire counts exact, and the spans tiling.
func TestSmokeServeChurn(t *testing.T) {
	w, err := findWorkload("serve_churn")
	if err != nil {
		t.Fatal(err)
	}
	rc := runConfig{Seed: 1, Seconds: 1, Requests: 3, Link: wanLink, OutDir: t.TempDir()}
	res, err := runUntraced(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if want := setupRounds * w.clients() * rc.Requests; res.Attempted != want || res.Failed != 0 {
		t.Fatalf("attempted %d, failed %d (%v); want %d, 0", res.Attempted, res.Failed, res.Errors, want)
	}
	for _, d := range endToEnd {
		if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
			t.Errorf("%s = %+v", d.Name, v)
		}
	}
	if f := res.Metrics["flights_per_predict"].Value; f != 13 {
		t.Errorf("flights_per_predict = %v, want 13", f)
	}
	traced, err := runTraced(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Failed != 0 || len(traced.Metrics) != len(perLayer) {
		t.Fatalf("traced: failed %d (%v), %d of %d metrics", traced.Failed, traced.Errors, len(traced.Metrics), len(perLayer))
	}
	if r := traced.Metrics["core.tiling_residual_share"].Value; r > tilingLimit {
		t.Errorf("tiling residual %v over the %v limit", r, tilingLimit)
	}
	if got, want := traced.Metrics["serve.sessions_admitted"].Value, float64(w.WarmUps+w.clients()*rc.Requests); got != want {
		t.Errorf("runtime admitted %v sessions, want %v", got, want)
	}
	if _, err := os.Stat(rc.OutDir + "/serve_churn.trace.jsonl"); err != nil {
		t.Errorf("no span dump: %v", err)
	}
}
