package abnn2

import (
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"abnn2/internal/core"
	"abnn2/internal/leakcheck"
	"abnn2/internal/otext"
	"abnn2/internal/plan"
	"abnn2/internal/prg"
)

// trainSmall builds a small trained+quantized model for API tests.
func trainSmall(t *testing.T, scheme string) (*QuantizedModel, Dataset) {
	t.Helper()
	ds := SyntheticDataset(300, 21)
	train, test := ds.Split(0.8)
	m := NewMLP(784, 16, 10)
	m.Train(train.Inputs, train.Labels, TrainOptions{Epochs: 2})
	qm, err := m.Quantize(scheme, 8)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	return qm, test
}

func TestSecureClassifyMatchesPlaintext(t *testing.T) {
	qm, test := trainSmall(t, "8(2,2,2,2)")
	sc, cc := Pipe()
	defer sc.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var srvErr error
	go func() {
		defer wg.Done()
		_, srvErr = Serve(sc, qm, Config{RingBits: 64, Seed: 1})
	}()
	client, err := Dial(cc, qm.Arch(), Config{RingBits: 64, Seed: 2})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	inputs := test.Inputs[:3]
	got, err := client.Classify(inputs)
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	for k, x := range inputs {
		if want := qm.Predict(x); got[k] != want {
			t.Errorf("input %d: secure class %d, plaintext %d", k, got[k], want)
		}
	}
	sc.Close()
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
}

func TestSecureClassifyMultipleBatches(t *testing.T) {
	qm, test := trainSmall(t, "ternary")
	sc, cc := Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Serve(sc, qm, Config{RingBits: 64, Seed: 3})
	}()
	client, err := Dial(cc, qm.Arch(), Config{RingBits: 64, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		inputs := test.Inputs[round*2 : round*2+2]
		got, err := client.Classify(inputs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for k, x := range inputs {
			if want := qm.Predict(x); got[k] != want {
				t.Errorf("round %d input %d: %d want %d", round, k, got[k], want)
			}
		}
	}
	sc.Close()
	wg.Wait()
}

func TestOptimizedReLUConfig(t *testing.T) {
	qm, test := trainSmall(t, "binary")
	sc, cc := Pipe()
	defer sc.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Serve(sc, qm, Config{RingBits: 64, OptimizedReLU: true, Seed: 5})
	}()
	client, err := Dial(cc, qm.Arch(), Config{RingBits: 64, OptimizedReLU: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Classify(test.Inputs[:2])
	if err != nil {
		t.Fatal(err)
	}
	for k := range got {
		if want := qm.Predict(test.Inputs[k]); got[k] != want {
			t.Errorf("input %d: %d want %d", k, got[k], want)
		}
	}
}

func TestFloatModelJSONAndPredict(t *testing.T) {
	m := Fig4Network()
	x := make([]float64, 784)
	x[5] = 1
	class := m.Predict(x)
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Predict(x) != class {
		t.Error("prediction changed after float model roundtrip")
	}
	if _, err := LoadModel([]byte("nope")); err == nil {
		t.Error("garbage model accepted")
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	qm, test := trainSmall(t, "4(2,2)")
	data, err := qm.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	qm2, err := LoadQuantizedModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if qm2.Scheme() != "4(2,2)" {
		t.Errorf("scheme after roundtrip: %s", qm2.Scheme())
	}
	for _, x := range test.Inputs[:5] {
		if qm.Predict(x) != qm2.Predict(x) {
			t.Error("prediction changed after roundtrip")
		}
	}
}

// A model whose layers do not chain, or whose declared input disagrees
// with its conv geometry, is one every client's Arch.Validate refuses at
// Dial: loading it must fail too, so that a server never starts on it.
func TestLoadQuantizedModelRejectsUndialableArch(t *testing.T) {
	for _, tc := range []struct{ name, json, want string }{
		{"mis-chained",
			`{"frac":4,"layers":[
				{"in":4,"out":3,"w":[1,0,1,0,1,0,1,0,1,0,1,0],"b":[0,0,0],"scale":1,"relu":true,"scheme":"binary"},
				{"in":5,"out":2,"w":[1,0,1,0,1,0,1,0,1,0],"b":[0,0],"scale":1,"relu":false,"scheme":"binary"}]}`,
			"layer 1 expects 5 inputs, previous layer outputs 3"},
		{"conv-geometry",
			`{"frac":4,"layers":[
				{"in":10,"out":1,"w":[1,0,1,0],"b":[0],"scale":1,"relu":false,"scheme":"binary",
				 "conv":{"ci":1,"h":3,"w":3,"kh":2,"kw":2,"stride":1,"pad":0}}]}`,
			"input 10 does not match conv geometry 9"},
	} {
		_, err := LoadQuantizedModel([]byte(tc.json))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadQuantizedModel error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	qm, _ := trainSmall(t, "binary")
	sc, cc := Pipe()
	defer sc.Close()
	if _, err := NewServer(sc, qm, Config{RingBits: 70}); err == nil {
		t.Error("RingBits 70 accepted by server")
	}
	if _, err := Dial(cc, qm.Arch(), Config{RingBits: 4}); err == nil {
		t.Error("RingBits 4 accepted by client")
	}
	if err := (Config{BankPeer: BankPeerID{1}}).Validate(); err == nil || !strings.Contains(err.Error(), "BankPeer") {
		t.Errorf("BankPeer without Bank: Validate = %v, want an error naming BankPeer", err)
	}
}

func TestDialRejectsBadScheme(t *testing.T) {
	arch := Arch{SchemeName: "nonsense"}
	_, cc := Pipe()
	if _, err := Dial(cc, arch, Config{}); err == nil {
		t.Error("bad scheme accepted")
	}
}

func TestClassifyValidatesInput(t *testing.T) {
	qm, _ := trainSmall(t, "binary")
	sc, cc := Pipe()
	defer sc.Close()
	go Serve(sc, qm, Config{RingBits: 64})
	client, err := Dial(cc, qm.Arch(), Config{RingBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Classify(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := client.Classify([][]float64{{1, 2}}); err == nil {
		t.Error("wrong feature count accepted")
	}
}

func TestClassifyPrivateMatchesClassify(t *testing.T) {
	qm, test := trainSmall(t, "8(2,2,2,2)")
	sc, cc := Pipe()
	defer sc.Close()
	go Serve(sc, qm, Config{RingBits: 64, Seed: 11})
	client, err := Dial(cc, qm.Arch(), Config{RingBits: 64, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	inputs := test.Inputs[:3]
	private, err := client.ClassifyPrivate(inputs)
	if err != nil {
		t.Fatalf("classify private: %v", err)
	}
	for k, x := range inputs {
		if want := qm.Predict(x); private[k] != want {
			t.Errorf("input %d: private class %d, plaintext %d", k, private[k], want)
		}
	}
}

func TestSecureCNNViaFacade(t *testing.T) {
	ds := SyntheticDataset(200, 61)
	train, test := ds.Split(0.8)
	m := NewSmallCNN(2)
	m.Train(train.Inputs, train.Labels, TrainOptions{Epochs: 1, BatchSize: 16})
	qm, err := m.Quantize("8(2,2,2,2)", 8)
	if err != nil {
		t.Fatal(err)
	}
	sc, cc := Pipe()
	defer sc.Close()
	go Serve(sc, qm, Config{RingBits: 64, Seed: 13})
	client, err := Dial(cc, qm.Arch(), Config{RingBits: 64, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	inputs := test.Inputs[:2]
	got, err := client.Classify(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for k, x := range inputs {
		if want := qm.Predict(x); got[k] != want {
			t.Errorf("input %d: secure CNN class %d, plaintext %d", k, got[k], want)
		}
	}
}

// Requantized models run on the small 32-bit ring and still classify
// correctly end to end.
func TestSecureClassifyRequant32(t *testing.T) {
	ds := SyntheticDataset(300, 51)
	train, test := ds.Split(0.8)
	m := NewMLP(784, 16, 10)
	m.Train(train.Inputs, train.Labels, TrainOptions{Epochs: 2})
	qm, err := m.QuantizeRequant("8(2,2,2,2)", 8)
	if err != nil {
		t.Fatal(err)
	}
	sc, cc := Pipe()
	defer sc.Close()
	go Serve(sc, qm, Config{RingBits: 32, Seed: 9})
	client, err := Dial(cc, qm.Arch(), Config{RingBits: 32, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	inputs := test.Inputs[:4]
	got, err := client.Classify(inputs)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for k, x := range inputs {
		if got[k] == qm.Predict(x) {
			agree++
		}
	}
	// Truncation slack can flip near-ties; demand full agreement here (the
	// synthetic task has wide margins) to catch systematic errors.
	if agree != len(inputs) {
		t.Errorf("only %d/%d secure predictions match plaintext requant inference", agree, len(inputs))
	}
}

func TestQuantizationAccuracyLadder(t *testing.T) {
	// Higher bitwidth should not be (much) worse than lower bitwidth.
	ds := SyntheticDataset(400, 31)
	train, test := ds.Split(0.75)
	m := NewMLP(784, 16, 10)
	m.Train(train.Inputs, train.Labels, TrainOptions{Epochs: 3})
	acc := map[string]float64{}
	for _, s := range []string{"binary", "ternary", "4(2,2)", "8(2,2,2,2)"} {
		qm, err := m.Quantize(s, 8)
		if err != nil {
			t.Fatal(err)
		}
		acc[s] = qm.Accuracy(test.Inputs, test.Labels)
	}
	if acc["8(2,2,2,2)"]+0.15 < acc["binary"] {
		t.Errorf("8-bit accuracy %.3f far below binary %.3f", acc["8(2,2,2,2)"], acc["binary"])
	}
	floatAcc := m.Accuracy(test.Inputs, test.Labels)
	if acc["8(2,2,2,2)"] < floatAcc-0.15 {
		t.Errorf("8-bit accuracy %.3f far below float %.3f", acc["8(2,2,2,2)"], floatAcc)
	}
}

// TestParseOfflineMode: ParseOfflineMode inverts OfflineMode.String and
// refuses every other name, "invalid" — String's answer for an
// out-of-range mode — included.
func TestParseOfflineMode(t *testing.T) {
	for _, m := range []OfflineMode{OfflineAuto, OfflineBanked} {
		if got, err := ParseOfflineMode(m.String()); err != nil || got != m {
			t.Errorf("ParseOfflineMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, name := range []string{"", "Auto", "banked ", "inline", "invalid", OfflineMode(7).String()} {
		if m, err := ParseOfflineMode(name); err == nil {
			t.Errorf("ParseOfflineMode(%q) = %v, want an error", name, m)
		}
	}
}

// TestV1PeerFailsInSetup pairs each party with a frozen wire-v1 peer and
// no hello in front (Serve / Dial on a bare connection, where nothing
// announces a version): v1 always set the triplet extension up over 256
// columns, this model's 4(2,2) scheme runs 192, so the first base-OT
// batch has the wrong number of points for whoever counts them. Both
// sides must come back with an ordinary error well inside the round
// timeout — no *PanicError, no hang.
func TestV1PeerFailsInSetup(t *testing.T) {
	qm := chaosModel(t)
	cfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout}
	// The v1 peer's set-up, then what the binaries do on an error: hang up.
	v1 := map[string]func(c Conn) error{
		"v1-client": func(c Conn) error {
			_, err := otext.NewSender(c, otext.WalshHadamardCode(256), 1, prg.New(prg.SeedFromInt(1)))
			return err
		},
		"v1-server": func(c Conn) error {
			_, err := otext.NewReceiver(c, otext.WalshHadamardCode(256), 1, prg.New(prg.SeedFromInt(2)))
			return err
		},
	}
	cur := map[string]func(c Conn) error{
		"v1-client": func(c Conn) error { _, err := Serve(c, qm, cfg); return err },
		"v1-server": func(c Conn) error { _, err := Dial(c, qm.Arch(), cfg); return err },
	}
	for name, old := range v1 {
		t.Run(name, func(t *testing.T) {
			base := leakcheck.Base()
			a, b := Pipe()
			oldErr := make(chan error, 1)
			go func() {
				err := old(a)
				a.Close()
				oldErr <- err
			}()
			start := time.Now()
			err := cur[name](b)
			b.Close()
			if err == nil {
				t.Fatal("set-up against a v1 peer succeeded")
			}
			var pe *PanicError
			if errors.As(err, &pe) {
				t.Errorf("set-up against a v1 peer panicked: %v", err)
			}
			if elapsed := time.Since(start); elapsed >= chaosRoundTimeout {
				t.Errorf("set-up took %v to fail, round timeout is %v", elapsed, chaosRoundTimeout)
			}
			if err := <-oldErr; err == nil {
				t.Error("the v1 peer completed its set-up")
			}
			t.Logf("current party: %v", err)
			leakcheck.Settle(t, base, name)
		})
	}
}

// keySwapConn replaces the flight that follows the plan frame — the
// plan's text form; under a plan whose first layer is MiniONN, the next
// flight is the client's Paillier public key — with a modulus of its own.
type keySwapConn struct {
	Conn
	plan     string
	modulus  []byte
	planSeen bool
}

func (k *keySwapConn) Send(msg []byte) error {
	if k.planSeen {
		k.planSeen, msg = false, k.modulus
	} else if string(msg) == k.plan {
		k.planSeen = true
	}
	return k.Conn.Send(msg)
}

// TestServerRefusesOversizedPaillierKey: the MiniONN public key is the
// client's, and the server's whole homomorphic matrix product runs modulo
// its square — compute, which no round timeout bounds. A client that
// schedules one MiniONN layer and sends an 8192-bit modulus must cost the
// server one ordinary error, raised on the key's length before anything
// is squared or any ciphertext read, and leave no goroutine behind.
func TestServerRefusesOversizedPaillierKey(t *testing.T) {
	qm := chaosModel(t)
	base := leakcheck.Base()
	modulus := prg.New(prg.SeedFromInt(41)).Bytes(8192 / 8)
	modulus[0] |= 0x80
	modulus[len(modulus)-1] |= 1
	cfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout}
	ccfg := cfg
	ccfg.Plan = plan.Uniform(core.BackendMiniONN, len(qm.Arch().Layers))
	ccfg.MiniONNKeyBits = 256
	sconn, cconn := Pipe()
	srvErr, cliErr, _ := runParties(t, qm, sconn, &keySwapConn{Conn: cconn, plan: ccfg.Plan.String(), modulus: modulus}, cfg, ccfg)
	if srvErr == nil || cliErr == nil {
		t.Fatalf("oversized key: server=%v client=%v, want both to fail", srvErr, cliErr)
	}
	var pe *PanicError
	if errors.As(srvErr, &pe) {
		t.Errorf("the server panicked on the key: %v", srvErr)
	}
	if !strings.Contains(srvErr.Error(), "paillier: modulus of 1024 bytes outside [256,4096] bits") {
		t.Errorf("the server did not refuse the key on its length: %v", srvErr)
	}
	leakcheck.Settle(t, base, "oversized key")
}

// planFrameConn replaces the client's plan flight — the plan's canonical
// text form — with frame.
type planFrameConn struct {
	Conn
	plan  string
	frame []byte
}

func (c *planFrameConn) Send(msg []byte) error {
	if string(msg) == c.plan {
		msg = c.frame
	}
	return c.Conn.Send(msg)
}

// v3PlanFrame is the binary frame a wire-v3 client put where v4 sends the
// plan's text form: "ABP1", a little-endian uint16 layer count, then per
// layer a backend byte, a scheme-length byte and the scheme.
func v3PlanFrame(p Plan) []byte {
	frame := binary.LittleEndian.AppendUint16([]byte("ABP1"), uint16(len(p)))
	for _, l := range p {
		var scheme string
		if l.Scheme != nil {
			scheme = l.Scheme.Name()
		}
		frame = append(append(frame, byte(l.Backend), byte(len(scheme))), scheme...)
	}
	return frame
}

// TestRequiredPlanAdmitsAnySpelling: a server that requires a plan
// compares the plan flight's canonical form with its own, so a client that
// spells the same schedule another way — spaces, a leading zero — is
// served and predicts like plaintext, and a different schedule is refused.
func TestRequiredPlanAdmitsAnySpelling(t *testing.T) {
	qm := chaosModel(t)
	required, err := core.ParseSchedule("abnn2:4(4),secureml")
	if err != nil {
		t.Fatal(err)
	}
	scfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout, Plan: required}
	ccfg := scfg
	for _, tc := range []struct {
		spelling string
		admitted bool
	}{
		{"abnn2:4(4),secureml", true},
		{"abnn2:4( 4) , secureml", true},
		{" abnn2:04(4),secureml", true},
		{"abnn2:4(2,2),secureml", false},
	} {
		sconn, cconn := Pipe()
		frame := &planFrameConn{Conn: cconn, plan: required.String(), frame: []byte(tc.spelling)}
		srvErr, cliErr, classes := runParties(t, qm, sconn, frame, scfg, ccfg)
		if !tc.admitted {
			if srvErr == nil || !strings.Contains(srvErr.Error(), "does not match") || cliErr == nil {
				t.Errorf("plan %q: server=%v client=%v, want the mismatch refused", tc.spelling, srvErr, cliErr)
			}
			continue
		}
		if srvErr != nil || cliErr != nil {
			t.Errorf("plan %q: server=%v client=%v, want it admitted", tc.spelling, srvErr, cliErr)
			continue
		}
		for k, x := range chaosInputs(2) {
			if classes[k] != qm.Predict(x) {
				t.Errorf("plan %q: input %d misclassified", tc.spelling, k)
			}
		}
	}
}

// TestV3PlanFlightFailsLoudly pairs this server with a wire-v3 client on
// a bare connection, where no hello announces a version: set-up is the
// same in both versions, so the session opens, and the first batch's plan
// flight is v3's binary frame, which core.ParseSchedule refuses.
func TestV3PlanFlightFailsLoudly(t *testing.T) {
	p := plan.Uniform(core.BackendSecureML, 2)
	refusedPlanFlight(t, p, v3PlanFrame(p), `unknown backend "ABP1`)
}

// TestBadPlanFlightRefused: the plan flight is the one place a plan
// crosses the wire, so a server that requires none still refuses there a
// plan it cannot run — one of the wrong length, or text that is no plan.
func TestBadPlanFlightRefused(t *testing.T) {
	sent := plan.Uniform(core.BackendSecureML, 2)
	for _, tc := range []struct{ frame, want string }{
		{"abnn2", "schedule has 1 layers"},
		{"not a plan", `unknown backend "not a plan"`},
	} {
		t.Run(tc.frame, func(t *testing.T) { refusedPlanFlight(t, sent, []byte(tc.frame), tc.want) })
	}
}

// TestPlanFlightRefusalIgnoresWeights: whether a server refuses a plan
// frame must turn on public data only. This model's scheme is 4(2,2), but
// every weight it holds is in {-1, 0, 1} — which a quotient layer, or an
// abnn2 override with a 2-bit range, would fit. The server must still
// refuse both, over the scheme's public range, or the refusal tells the
// client its weights are ternary.
func TestPlanFlightRefusalIgnoresWeights(t *testing.T) {
	qm := chaosModel(t)
	for _, l := range qm.qm.Layers {
		for i := range l.W {
			l.W[i] = int64(i%3) - 1
		}
	}
	sent := plan.Uniform(core.BackendSecureML, 2)
	for _, tc := range []struct{ frame, want string }{
		{"quotient,quotient", "quotient backend requires ternary weights, got [-8,7]"},
		{"abnn2:2(2),abnn2", "outside scheme 2(2) range"},
	} {
		t.Run(tc.frame, func(t *testing.T) { refusedPlanFlightOn(t, qm, sent, []byte(tc.frame), tc.want) })
	}
}

// refusedPlanFlight runs a batch whose client dials with plan sent but
// puts frame on the wire in its place. The server's batch must fail with
// an error containing want — no *PanicError, the frame never misread as a
// plan — and the client must see the connection close well inside the
// round timeout, with no goroutine left behind.
func refusedPlanFlight(t *testing.T, sent Plan, frame []byte, want string) {
	t.Helper()
	refusedPlanFlightOn(t, chaosModel(t), sent, frame, want)
}

func refusedPlanFlightOn(t *testing.T, qm *QuantizedModel, sent Plan, frame []byte, want string) {
	t.Helper()
	base := leakcheck.Base()
	cfg := Config{RingBits: 32, RoundTimeout: chaosRoundTimeout}
	ccfg := cfg
	ccfg.Plan = sent
	sconn, cconn := Pipe()
	start := time.Now()
	srvErr, cliErr, _ := runParties(t, qm, sconn, &planFrameConn{Conn: cconn, plan: sent.String(), frame: frame}, cfg, ccfg)
	if srvErr == nil || !strings.Contains(srvErr.Error(), want) {
		t.Errorf("server: %v, want an error containing %q", srvErr, want)
	}
	var pe *PanicError
	if errors.As(srvErr, &pe) || errors.As(cliErr, &pe) {
		t.Errorf("a party panicked: server=%v client=%v", srvErr, cliErr)
	}
	if cliErr == nil {
		t.Error("the client's batch completed against a server that refused its plan")
	}
	if elapsed := time.Since(start); elapsed >= chaosRoundTimeout {
		t.Errorf("the session took %v to fail, round timeout is %v", elapsed, chaosRoundTimeout)
	}
	t.Logf("server: %v; client: %v", srvErr, cliErr)
	leakcheck.Settle(t, base, "refused plan flight")
}
