package testkit

import (
	"testing"

	"abnn2"
	"abnn2/internal/core"
	"abnn2/internal/quant"
)

// TestGoldenSessionPlanned pins the full wire transcript of a planned
// session — the plan frame rides behind the batch announcement, the
// conv layer runs ABNN2 under a coarser (3,3) override of the session's
// 6(6) scheme, and the FC layer runs the SecureML baseline — and proves
// the same two invariances as the unplanned session golden on top:
//
//   - Config.Workers does not leak into the wire bytes: the Workers=8
//     transcript is byte-identical to the Workers=1 golden.
//   - The flight shapes, now including the plan frame, are independent
//     of the secret inputs: same seeds, different client inputs, same
//     flight sizes in the same order.
//
// MiniONN is absent from the pinned plan because its Paillier ciphertext
// bytes once depended on GOMAXPROCS. They no longer do (each ciphertext has
// its own child PRG; internal/baseline's
// TestMiniONNTranscriptIgnoresGOMAXPROCS holds that), but the pinned plan
// and its golden file are left as they were: the backend stays
// conformance-locked by TestMixedPlanSweep rather than a transcript.
func TestGoldenSessionPlanned(t *testing.T) {
	c := Generate(5) // fixed case: ring 8, scheme 6(6), batch 2, conv+pool then FC
	p := abnn2.Plan{
		{Backend: core.BackendABNN2, Scheme: quant.Uniform(3, 2)},
		{Backend: core.BackendSecureML},
	}
	mutate := func(server bool, cfg *abnn2.Config) { cfg.Plan = p }

	srv1, cli1 := sessionTranscripts(t, c, 1, c.Inputs, mutate)
	parties := []PartyTranscript{
		{Party: "server", T: srv1},
		{Party: "client", T: cli1},
	}
	desc := "planned session workers=1 plan=" + p.String() + " " + c.Desc()
	if err := CompareGolden("session-planned-seed5", desc, parties, *update); err != nil {
		t.Fatal(err)
	}

	srv8, cli8 := sessionTranscripts(t, c, 8, c.Inputs, mutate)
	if d := srv1.Diff(srv8); d != "" {
		t.Errorf("server transcript differs between Workers=1 and Workers=8: %s", d)
	}
	if d := cli1.Diff(cli8); d != "" {
		t.Errorf("client transcript differs between Workers=1 and Workers=8: %s", d)
	}

	other := make([][]float64, len(c.Inputs))
	for k, x := range c.Inputs {
		o := make([]float64, len(x))
		for i := range o {
			o[i] = -x[i] + 0.25
		}
		other[k] = o
	}
	srvO, cliO := sessionTranscripts(t, c, 1, other, mutate)
	if !EqualShapes(srv1, srvO) {
		t.Error("server flight shapes of the planned session depend on the client's secret inputs")
	}
	if !EqualShapes(cli1, cliO) {
		t.Error("client flight shapes of the planned session depend on the client's secret inputs")
	}
}
