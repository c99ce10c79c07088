package serve

import (
	"context"
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

// TestServePlannedSessionEndToEnd: a client dialing with a valid mixed
// plan is admitted by the ordinary handshake, announces the plan on each
// batch, and the planned session predicts exactly what the plaintext
// model does.
func TestServePlannedSessionEndToEnd(t *testing.T) {
	reg := testRegistry(t, "m0")
	rt := testRuntime(t, Options{Registry: reg})
	p := testPlan()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, arch, err := rt.Connect(ctx, "m0")
	if err != nil {
		t.Fatalf("connect: %v", err)
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

// helloConn sends raw in place of the client's first flight, the hello.
type helloConn struct {
	abnn2.Conn
	raw  []byte
	sent bool
}

func (c *helloConn) Send(msg []byte) error {
	if !c.sent {
		c.sent, msg = true, c.raw
	}
	return c.Conn.Send(msg)
}

// TestRequiredPlanMismatch: a runtime pinned to a required plan
// (single-model servers started with -plan) admits every well-formed
// hello, and enforces the plan where it crosses the wire, at each batch's
// plan flight: a client dialing with the required plan classifies, one
// dialing with another plan or none is admitted and its first batch
// fails, and its session slot comes back. A version-4 hello that still
// carries a plan, even one that does not parse, is admitted as if it did
// not: the key is ignored.
func TestRequiredPlanMismatch(t *testing.T) {
	reg := testRegistry(t, "m0")
	required, err := core.ParseSchedule("secureml,abnn2:4(4)")
	if err != nil {
		t.Fatal(err)
	}
	rt := testRuntime(t, Options{Registry: reg, Session: abnn2.Config{Plan: required}})
	for _, tc := range []struct {
		name       string
		hello      string // raw hello; empty = the runtime client's
		plan       string // the client's Config.Plan; empty = none
		classifies bool
	}{
		{"required", "", "secureml,abnn2:4(4)", true},
		{"other", "", "abnn2,secureml", false},
		{"none", "", "", false},
		{"hello-plan-ignored", `{"abnn2":8,"model":"m0","plan":"not a plan"}`, "secureml,abnn2:4(4)", true},
	} {
		var p abnn2.Plan
		if tc.plan != "" {
			if p, err = core.ParseSchedule(tc.plan); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		var conn abnn2.Conn
		var arch abnn2.Arch
		if tc.hello == "" {
			conn, arch, err = rt.Connect(ctx, "m0")
		} else {
			sconn, cconn := abnn2.Pipe()
			go func() { _ = rt.HandleConn(ctx, sconn, "inproc") }()
			var info HandshakeInfo
			info, err = ClientHandshakeInfo(&helloConn{Conn: cconn, raw: []byte(tc.hello)}, "m0")
			conn, arch = cconn, info.Arch
		}
		if err != nil {
			cancel()
			t.Fatalf("%s: connect: %v", tc.name, err)
		}
		client, err := abnn2.Dial(conn, arch, abnn2.Config{
			RingBits: 32, RoundTimeout: testRoundTimeout, Plan: p,
		})
		if err != nil {
			conn.Close()
			cancel()
			t.Fatalf("%s: dial: %v", tc.name, err)
		}
		_, err = client.Classify(testInputs(1))
		client.Close()
		cancel()
		if tc.classifies && err != nil {
			t.Errorf("%s: classify under plan %q: %v", tc.name, tc.plan, err)
		}
		if !tc.classifies && err == nil {
			t.Errorf("%s: plan %q classified on a server requiring %s", tc.name, tc.plan, required)
		}
		deadline := time.Now().Add(5 * time.Second)
		for rt.Admission().Active() != 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if active := rt.Admission().Active(); active != 0 {
			t.Errorf("%s: %d sessions still admitted after the client closed", tc.name, active)
		}
	}
}
