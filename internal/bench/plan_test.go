package bench

import "testing"

// TestTablePlanShapes is the planner's acceptance gate: under the WAN
// preset the cost model must pick a genuinely mixed per-layer schedule
// for the reference CNN, and that schedule's *measured* offline wire
// traffic (the client meter's delta over the offline phase of a real run)
// must strictly beat every uniform single-backend schedule. Byte counts are
// deterministic under seeded randomness, so the comparison is exact —
// no timing noise to calibrate around.
func TestTablePlanShapes(t *testing.T) {
	rows := TablePlan(quickOpts())
	if len(rows) < 3 {
		t.Fatalf("got %d rows, want the chosen plan plus at least two uniform baselines", len(rows))
	}
	chosen := rows[0]
	if chosen.Uniform {
		t.Fatalf("planner chose the uniform plan %q under WAN; expected a mixed schedule", chosen.Plan)
	}
	if chosen.OfflineMB <= 0 {
		t.Fatalf("chosen plan %q recorded no offline traffic", chosen.Plan)
	}
	for _, r := range rows[1:] {
		if !r.Uniform {
			continue
		}
		if chosen.OfflineMB >= r.OfflineMB {
			t.Errorf("mixed plan %q offline %.3f MB does not beat uniform %q offline %.3f MB",
				chosen.Plan, chosen.OfflineMB, r.Plan, r.OfflineMB)
		}
	}
}

// TestCheckPlan: the flag values TablePlan would panic on are refused up
// front, in one line, and the ones it accepts are not.
func TestCheckPlan(t *testing.T) {
	for _, ok := range []Options{{}, {Plan: "auto", Link: "lan"}, {Plan: "abnn2,minionn", Link: "9:72"}, {Plan: "secureml"}} {
		if err := CheckPlan(ok); err != nil {
			t.Errorf("CheckPlan(%+v) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []Options{{Plan: "nonsense"}, {Plan: "abnn2:3(2,1),abnn2"}, {Plan: "abnn2,abnn2,abnn2"}, {Link: "fast"}} {
		if err := CheckPlan(bad); err == nil {
			t.Errorf("CheckPlan(%+v) accepted", bad)
		}
	}
}
