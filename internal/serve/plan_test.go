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
func testPlan() abnn2.Plan {
	return abnn2.Plan{
		{Backend: core.BackendSecureML},
		{Backend: core.BackendABNN2},
	}
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

	short := abnn2.Plan{{Backend: core.BackendABNN2}}
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
// (single-model servers started with -plan) admits the hellos carrying
// that schedule — in any spelling, since plans are compared in canonical
// form, and every spelling has the required plan's fingerprint — and runs
// them end to end; a hello carrying any other schedule is refused.
func TestRequiredPlanMismatch(t *testing.T) {
	reg := testRegistry(t, "m0")
	required, err := core.ParseSchedule("secureml,abnn2:4(4)")
	if err != nil {
		t.Fatal(err)
	}
	rt := testRuntime(t, Options{Registry: reg, Session: abnn2.Config{Plan: required}})
	for _, tc := range []struct {
		spelling string
		admitted bool
	}{
		{"abnn2,secureml", false},
		{"secureml,abnn2", false},
		{"secureml,abnn2:4(4)", true},
		{"secureml, abnn2:4( 4)", true},
		{"secureml,abnn2:04(4)", true},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		sconn, cconn := abnn2.Pipe()
		go func() { _ = rt.HandleConn(ctx, sconn, "inproc") }()
		info, err := clientHandshake(cconn, hello{V: helloVersion, Model: "m0", Plan: tc.spelling})
		if !tc.admitted {
			var rej *RejectError
			if !errors.As(err, &rej) || rej.Rejection.Code != RejectBadPlan || rej.Temporary() {
				t.Errorf("plan %q: %v, want a permanent bad-plan rejection", tc.spelling, err)
			}
			cconn.Close()
			cancel()
			continue
		}
		if err != nil {
			t.Fatalf("plan %q: connect: %v", tc.spelling, err)
		}
		if p, _ := core.ParseSchedule(tc.spelling); p.Fingerprint() != required.Fingerprint() {
			t.Errorf("plan %q has fingerprint %s, the required plan %s", tc.spelling, p.Fingerprint(), required.Fingerprint())
		}
		client, err := abnn2.Dial(cconn, info.Arch, abnn2.Config{
			RingBits: 32, RoundTimeout: testRoundTimeout, Plan: required,
		})
		if err != nil {
			cconn.Close()
			t.Fatalf("plan %q: dial: %v", tc.spelling, err)
		}
		if _, err := client.Classify(testInputs(1)); err != nil {
			t.Errorf("plan %q: classify under the required plan: %v", tc.spelling, err)
		}
		client.Close()
		cancel()
	}
}
