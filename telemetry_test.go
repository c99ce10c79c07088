package abnn2

import (
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"abnn2/internal/transport"
)

// sumRoots adds up the communication attributed to root spans; roots
// partition a session's traffic, so the sum must equal the endpoint's
// meter totals exactly.
func sumRoots(spans []TraceSpan) Stats {
	var s Stats
	for _, sp := range TraceRoots(spans) {
		s.BytesAB += sp.BytesSent
		s.BytesBA += sp.BytesRecvd
		s.Messages += sp.Messages
		s.Flights += sp.Flights
	}
	return s
}

func countSpans(spans []TraceSpan, name string) int {
	n := 0
	for _, sp := range spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestTracedTCPInferenceSpansMatchMeter is the observability acceptance
// test: a full secure inference over real TCP, traced on both sides,
// must produce span dumps whose root spans sum exactly to each
// endpoint's transport meter — no byte unattributed, none counted
// twice — with the per-layer phase structure of the protocol visible.
func TestTracedTCPInferenceSpansMatchMeter(t *testing.T) {
	qm, test := trainSmall(t, "8(2,2,2,2)")
	layers := len(qm.Arch().Layers)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer ln.Close()

	srvSink := NewTraceCollector()
	cliSink := NewTraceCollector()
	type serveResult struct {
		stats Stats
		err   error
	}
	resCh := make(chan serveResult, 1)
	go func() {
		tcp, err := ln.Accept()
		if err != nil {
			resCh <- serveResult{err: err}
			return
		}
		defer tcp.Close()
		stats, err := Serve(Stream(tcp), qm, Config{
			RingBits: 64, RoundTimeout: time.Minute, Trace: srvSink, SessionID: 7,
		})
		resCh <- serveResult{stats, err}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := DialTCP(ctx, ln.Addr().String())
	if err != nil {
		t.Fatalf("dial tcp: %v", err)
	}
	client, err := Dial(conn, qm.Arch(), Config{
		RingBits: 64, RoundTimeout: time.Minute, Trace: cliSink, SessionID: 7,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	inputs := test.Inputs[:2]
	got, err := client.Classify(inputs)
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	for k, x := range inputs {
		if want := qm.Predict(x); got[k] != want {
			t.Errorf("input %d: secure class %d, plaintext %d", k, got[k], want)
		}
	}
	cliStats := client.Stats()
	client.Close()
	res := <-resCh
	if res.err != nil {
		t.Fatalf("serve: %v", res.err)
	}

	// Root spans partition each endpoint's traffic.
	if got := sumRoots(srvSink.Spans()); got != res.stats {
		t.Errorf("server root spans sum to %+v, meter says %+v", got, res.stats)
	}
	if got := sumRoots(cliSink.Spans()); got != cliStats {
		t.Errorf("client root spans sum to %+v, meter says %+v", got, cliStats)
	}
	// The two single-ended meters are mirror images over lossless TCP.
	if res.stats.BytesAB != cliStats.BytesBA || res.stats.BytesBA != cliStats.BytesAB {
		t.Errorf("endpoint views disagree: server %+v, client %+v", res.stats, cliStats)
	}
	if res.stats.TotalBytes() == 0 {
		t.Error("no traffic metered")
	}

	// Phase structure: one triplets and one matmul span per linear
	// layer, one ReLU span per activation layer, exactly one batch.
	srvSpans := srvSink.Spans()
	reluLayers := 0
	for _, l := range qm.Arch().Layers {
		if l.ReLU {
			reluLayers++
		}
	}
	for name, want := range map[string]int{
		"setup": 1, "baseot": 2, "batch": 1, "offline": 1, "online": 1,
		"triplets": layers, "matmul": layers, "relu": reluLayers,
		"input": 1, "output": 1,
	} {
		if got := countSpans(srvSpans, name); got != want {
			t.Errorf("server %q spans = %d, want %d", name, got, want)
		}
	}
	cliSpans := cliSink.Spans()
	for name, want := range map[string]int{
		"setup": 1, "baseot": 2, "batch": 1, "offline": 1, "online": 1,
		"triplets": layers, "relu": reluLayers, "input": 1, "output": 1,
	} {
		if got := countSpans(cliSpans, name); got != want {
			t.Errorf("client %q spans = %d, want %d", name, got, want)
		}
	}
	for _, sp := range append(srvSpans, cliSpans...) {
		if sp.Session != 7 {
			t.Fatalf("span %q has session %d, want 7", sp.Name, sp.Session)
		}
		if sp.Party != "server" && sp.Party != "client" {
			t.Fatalf("span %q has party %q", sp.Name, sp.Party)
		}
		if sp.Dur < 0 {
			t.Fatalf("span %q has negative duration", sp.Name)
		}
	}
	for _, sp := range srvSpans {
		switch sp.Name {
		case "triplets", "matmul":
			if sp.Layer < 0 || sp.Layer >= layers {
				t.Errorf("%s span layer = %d", sp.Name, sp.Layer)
			}
		case "batch", "offline", "online":
			if sp.Batch != len(inputs) {
				t.Errorf("%s span batch = %d, want %d", sp.Name, sp.Batch, len(inputs))
			}
		}
		if sp.Name == "matmul" && sp.Workers <= 0 {
			t.Errorf("matmul span workers = %d", sp.Workers)
		}
	}

	// Set-up is the two base-OT batches under the setup span, in protocol
	// order: one OT per column of the scheme's code for the triplet
	// extension — 192 for the N = 4 fragments of 8(2,2,2,2) — then 128
	// for the GC's; a batch of n moves A, n points and n ciphertext pairs.
	for party, spans := range map[string][]TraceSpan{"server": srvSpans, "client": cliSpans} {
		var setup TraceSpan
		var batches []TraceSpan
		for _, sp := range spans {
			switch sp.Name {
			case "setup":
				setup = sp
			case "baseot":
				batches = append(batches, sp)
			}
		}
		for i, n := range []int{192, 128} {
			if i >= len(batches) {
				break // counted above
			}
			if sp := batches[i]; sp.Batch != n || sp.Parent != setup.ID || sp.Bytes() != int64(65+n*(65+32)) {
				t.Errorf("%s baseot span %d: batch %d, parent %d, %d bytes; want batch %d under setup (%d), %d bytes",
					party, i, sp.Batch, sp.Parent, sp.Bytes(), n, setup.ID, 65+n*(65+32))
			}
		}
	}

	// The JSONL dump format round-trips, and the table renderer shows
	// the per-phase breakdown.
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	for _, sp := range srvSpans {
		w.Emit(sp)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	if len(back) != len(srvSpans) {
		t.Fatalf("round trip lost spans: %d vs %d", len(back), len(srvSpans))
	}
	table := TraceTable(back)
	for _, phase := range []string{"matmul", "triplets", "setup", "baseot"} {
		if !strings.Contains(table, phase) {
			t.Errorf("trace table missing %q:\n%s", phase, table)
		}
	}
}

// TestStatsWithoutTracing: metering is always on, so Stats must be
// populated and mirrored even with tracing disabled.
func TestStatsWithoutTracing(t *testing.T) {
	qm, test := trainSmall(t, "ternary")
	sc, cc := Pipe()
	defer sc.Close()
	type serveResult struct {
		stats Stats
		err   error
	}
	resCh := make(chan serveResult, 1)
	go func() {
		stats, err := Serve(sc, qm, Config{RingBits: 32, Seed: 1})
		resCh <- serveResult{stats, err}
	}()
	client, err := Dial(cc, qm.Arch(), Config{RingBits: 32, Seed: 2})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := client.Classify(test.Inputs[:1]); err != nil {
		t.Fatalf("classify: %v", err)
	}
	cliStats := client.Stats()
	client.Close()
	res := <-resCh
	if res.err != nil {
		t.Fatalf("serve: %v", res.err)
	}
	if res.stats.BytesAB != cliStats.BytesBA || res.stats.BytesBA != cliStats.BytesAB {
		t.Errorf("endpoint views disagree: server %+v, client %+v", res.stats, cliStats)
	}
	if res.stats.TotalBytes() == 0 || res.stats.Messages == 0 {
		t.Errorf("stats empty without tracing: %+v", res.stats)
	}
}

// TestSessionSendAddsNoAllocations is the zero-overhead acceptance
// criterion: with tracing off, the session layer (always-on metering
// included) must not allocate on the hot send path beyond what the raw
// transport itself allocates.
func TestSessionSendAddsNoAllocations(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	sc := newSessionConn(context.Background(), a, 0, nil)
	defer sc.release()
	msg := make([]byte, 64)

	base := testing.AllocsPerRun(200, func() {
		if err := b.Send(msg); err != nil {
			t.Fatal(err)
		}
	})
	metered := testing.AllocsPerRun(200, func() {
		if err := sc.Send(msg); err != nil {
			t.Fatal(err)
		}
	})
	if metered > base {
		t.Fatalf("session send allocates %.1f/op, raw transport %.1f/op", metered, base)
	}
}

// BenchmarkSessionSend measures the per-message overhead of the session
// layer with tracing disabled (metering always on).
func BenchmarkSessionSend(b *testing.B) {
	x, y := transport.Pipe()
	defer x.Close()
	sc := newSessionConn(context.Background(), x, 0, nil)
	defer sc.release()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := y.Recv(); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		if err := sc.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
	x.Close()
	wg.Wait()
}
