package serve

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"abnn2"
	"abnn2/internal/core"
)

// testPlan is the mixed schedule the planned serve tests run the
// two-layer test MLP under: the hidden layer on the SecureML baseline,
// the output layer on ABNN2.
func testPlan() *abnn2.Plan {
	return &abnn2.Plan{Layers: []abnn2.PlanChoice{
		{Backend: core.BackendSecureML},
		{Backend: core.BackendABNN2},
	}}
}

// TestServePlannedSessionEndToEnd: a client proposing a valid mixed
// plan in the hello is admitted, the admitted plan becomes the
// session's requirement, and the planned session predicts exactly what
// the plaintext model does.
func TestServePlannedSessionEndToEnd(t *testing.T) {
	reg := testRegistry(t, "m0")
	rt := testRuntime(t, Options{Registry: reg})
	p := testPlan()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, arch, err := rt.ConnectPlan(ctx, "m0", p)
	if err != nil {
		t.Fatalf("connect with plan: %v", err)
	}
	client, err := abnn2.Dial(conn, arch, abnn2.Config{
		RingBits: 32, RoundTimeout: testRoundTimeout, Plan: p,
	})
	if err != nil {
		conn.Close()
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	classes, err := client.Classify(testInputs(2))
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	qm, _ := reg.Get("m0")
	for k, x := range testInputs(2) {
		if want := qm.Quant.Predict(x); classes[k] != want {
			t.Errorf("input %d: planned secure %d, plaintext %d", k, classes[k], want)
		}
	}
}

// TestRejectBadPlan: an infeasible plan (wrong layer count) and a
// malformed plan are both refused in the handshake round with the
// permanent bad-plan code — before admission, before any base-OT work.
func TestRejectBadPlan(t *testing.T) {
	rt := testRuntime(t, Options{})

	short := &abnn2.Plan{Layers: []abnn2.PlanChoice{{Backend: core.BackendABNN2}}}
	_, _, err := rt.ConnectPlan(context.Background(), "", short)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *RejectError", err)
	}
	if rej.Rejection.Code != RejectBadPlan || rej.Temporary() {
		t.Fatalf("rejection = %+v, want permanent bad-plan", rej.Rejection)
	}

	// A plan that does not parse at all.
	raw, err := json.Marshal(hello{V: helloVersion, Plan: "not a plan"})
	if err != nil {
		t.Fatal(err)
	}
	sconn, cconn := abnn2.Pipe()
	done := make(chan error, 1)
	go func() { done <- rt.HandleConn(context.Background(), sconn, "test") }()
	if err := cconn.Send(raw); err != nil {
		t.Fatalf("send: %v", err)
	}
	reply, err := cconn.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	var hr helloReply
	if err := json.Unmarshal(reply, &hr); err != nil {
		t.Fatalf("reply not JSON: %v", err)
	}
	if hr.OK || hr.Reject == nil || hr.Reject.Code != RejectBadPlan || hr.Reject.Retryable {
		t.Fatalf("reply = %+v, want permanent bad-plan rejection", hr)
	}
	if err := <-done; !errors.As(err, &rej) || rej.Rejection.Code != RejectBadPlan {
		t.Fatalf("HandleConn err = %v, want bad-plan RejectError", err)
	}
	cconn.Close()
}

// TestRequiredPlanMismatch: a runtime pinned to a required plan
// (single-model servers started with -plan) admits only hellos carrying
// that exact plan, and runs them end to end.
func TestRequiredPlanMismatch(t *testing.T) {
	reg := testRegistry(t, "m0")
	required := testPlan()
	rt := testRuntime(t, Options{Registry: reg, Session: abnn2.Config{Plan: required}})

	other := &abnn2.Plan{Layers: []abnn2.PlanChoice{
		{Backend: core.BackendABNN2},
		{Backend: core.BackendSecureML},
	}}
	_, _, err := rt.ConnectPlan(context.Background(), "m0", other)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *RejectError", err)
	}
	if rej.Rejection.Code != RejectBadPlan || rej.Temporary() {
		t.Fatalf("rejection = %+v, want permanent bad-plan", rej.Rejection)
	}

	// The matching plan is admitted and completes.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, arch, err := rt.ConnectPlan(ctx, "m0", required)
	if err != nil {
		t.Fatalf("connect with required plan: %v", err)
	}
	client, err := abnn2.Dial(conn, arch, abnn2.Config{
		RingBits: 32, RoundTimeout: testRoundTimeout, Plan: required,
	})
	if err != nil {
		conn.Close()
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	if _, err := client.Classify(testInputs(1)); err != nil {
		t.Fatalf("classify under required plan: %v", err)
	}
}
