package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one row of the workload table; README.md gives the long
// form of every Why.
type workload struct {
	Name    string
	Why     string
	Model   string
	Batch   int
	Private bool // ClassifyPrivate: the GC argmax finish
	Banked  bool // both parties share a prefilled bank, OfflineBanked
	WAN     bool // timed requests cross the link shaper
	Churn   bool // serve.Runtime, one session per request, nproc clients
	WarmUps int
}

var workloads = []workload{
	{Name: "mlp_b1_lan", Model: modelFig4, Batch: 1, WarmUps: 2,
		Why: "paper's batch-1 MLP row: ~0.9 of wall is one-batch triplet generation (otext, bitmat, prg, core), gc does little"},
	{Name: "mlp_b1_wan", Model: modelFig4, Batch: 1, WarmUps: 2, WAN: true,
		Why: "same requests over a shaped 24.3 MB/s + 40 ms link: bytes and flights set the time, kernel speed-ups must not"},
	{Name: "mlp_b32_banked", Model: modelFig4, Batch: 32, WarmUps: 1, Banked: true,
		Why: "offline work prefilled into a bank during set-up: requests run gc, ring matmul and bank draws, never otext"},
	{Name: "cnn_b1_lan", Model: modelCNN, Batch: 1, WarmUps: 2, Private: true,
		Why: "conv lowers to multi-batch triplets where the MLP is one-batch; 2304 pooled neurons and a GC argmax finish"},
	{Name: "serve_churn", Model: modelSmall, Batch: 1, WarmUps: 2, Churn: true,
		Why: "one session per request through serve.Runtime: handshake, admission, base OTs and teardown dominate"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// setupRounds is how often an untraced run sets the workload up: the
	// timed window is split over that many fresh set-ups and setup_s is
	// their median, so one slow set-up does not decide it.
	setupRounds = 3
	// bankedRequests is the number of timed requests per round of a banked
	// workload (per window of a traced run: bankedTracedRequests). Each
	// needs a correlation generated during set-up at about twice a
	// request's cost, so the count is fixed and not time-boxed.
	bankedRequests       = 3
	bankedTracedRequests = 2
	// inputPool is how many generated inputs a run cycles through.
	inputPool = 128
	// replayReps is how often the replay calls each layer; it reports medians.
	replayReps = 5
)

// runConfig is what the command line fixes for a run.
type runConfig struct {
	Seed     uint64
	Seconds  float64 // timed window of the whole run
	Requests int     // when positive: requests per client and round, instead of the time box
	Link     link    // shape of the WAN workload
	OutDir   string  // where traced runs leave their span dumps
}

// nproc is the processor count the load is sized to: each party gets half
// of it as workers, and no workload opens more connections than it.
func nproc() int { return runtime.NumCPU() }

func partyWorkers() int { return max(1, nproc()/2) }

func (w workload) clients() int {
	if w.Churn {
		return nproc()
	}
	return 1
}

// requestsPerRound is the fixed request count of a round of an untraced
// run or a window of a traced one, 0 for a time box.
func (w workload) requestsPerRound(rc runConfig, traced bool) int {
	switch {
	case rc.Requests > 0:
		return rc.Requests
	case w.Banked && traced:
		return bankedTracedRequests
	case w.Banked:
		return bankedRequests
	}
	return 0
}

// reference is the benchmark's own knowledge of a run: the inputs made
// from the seed and the plaintext prediction of each.
type reference struct {
	arch     arch
	scheme   string
	inputs   [][]float64
	expected []int
}

func newReference(w workload, seed uint64) (*reference, error) {
	qm, err := buildModel(w.Model)
	if err != nil {
		return nil, err
	}
	a := qm.Arch()
	ref := &reference{arch: a, scheme: a.SchemeName, inputs: generateInputs(inputPool, a.InputSize(), seed)}
	ref.expected = make([]int, len(ref.inputs))
	for i, x := range ref.inputs {
		ref.expected[i] = qm.Predict(x)
	}
	return ref, nil
}

// slice returns the inputs of request i and where they start in the pool.
func (r *reference) slice(i, batch int) (inputs [][]float64, start int) {
	start = (i * batch) % (len(r.inputs) - batch + 1)
	return r.inputs[start : start+batch], start
}

// wrong counts predictions that differ from plaintext.
func (r *reference) wrong(start int, got []int) int {
	n := 0
	for k, c := range got {
		if c != r.expected[start+k] {
			n++
		}
	}
	return n
}

// reqResult is one finished request.
type reqResult struct {
	Seconds     float64 // wall until the client holds the predictions
	Predictions int
	Wrong       int
	Stats       wireStats // what the request moved, both directions
	Churn       churnTimes
}

// env is a workload after set-up, ready for closed-loop requests.
type env interface {
	// request runs client c's i-th request.
	request(c, i int) (reqResult, error)
	// facts reports what set-up and the layers' own counters say so far.
	facts() envFacts
	close() error
}

// envFacts is what a traced run reads off an env besides its requests;
// a field the workload has no use for stays zero.
type envFacts struct {
	Warm       []float64 // warm-up walls, unshaped
	Fills      []float64 // wall of each bank fill
	Dial       float64   // wall of the long session's abnn2.Dial
	BankHits   int64
	BankMisses int64
	Serve      serveCounters
}

// sessionEnv serves every request over one long session.
type sessionEnv struct {
	w      workload
	ref    *reference
	s      *session
	bank   *bankEnv
	shaper *shaper
	warm   []float64 // warm-up walls, unshaped
	fills  []float64 // wall of each bank fill
	next   int       // requests made so far, warm-ups included
}

func (e *sessionEnv) request(_, _ int) (reqResult, error) {
	in, start := e.ref.slice(e.next, e.w.Batch)
	e.next++
	before := e.s.stats()
	t0 := time.Now()
	got, err := e.s.predict(in, e.w.Private)
	res := reqResult{Seconds: time.Since(t0).Seconds(), Predictions: len(in)}
	if err != nil {
		return res, err
	}
	res.Stats = e.s.stats().Sub(before)
	res.Wrong = e.ref.wrong(start, got)
	return res, nil
}

func (e *sessionEnv) facts() envFacts {
	f := envFacts{Warm: e.warm, Fills: e.fills, Dial: e.s.DialTime.Seconds()}
	if e.bank != nil {
		f.BankHits, f.BankMisses = e.bank.counters()
	}
	return f
}

func (e *sessionEnv) close() error {
	err := e.s.close()
	if e.bank != nil {
		e.bank.close()
	}
	return err
}

// churnEnv opens a session per request against a serving runtime.
type churnEnv struct {
	ref  *reference
	rt   *runtimeEnv
	sink traceSink // nil on untraced runs
}

func (e *churnEnv) request(c, i int) (reqResult, error) {
	// Clients take disjoint strides through the pool.
	idx := (i*nproc() + c) % len(e.ref.inputs)
	t0 := time.Now()
	class, st, times, err := e.rt.churnOnce(context.Background(), e.ref.inputs[idx], e.sink)
	res := reqResult{Seconds: time.Since(t0).Seconds(), Predictions: 1, Stats: st, Churn: times}
	if err != nil {
		return res, err
	}
	res.Wrong = e.ref.wrong(idx, []int{class})
	return res, nil
}

func (e *churnEnv) facts() envFacts { return envFacts{Serve: e.rt.counters()} }

func (e *churnEnv) close() error { return e.rt.close() }

// setUp builds the model, opens the connections, fills the bank and
// warms up: everything setup_s covers. requests is how many timed
// requests will follow (a banked workload fills for them); sink is nil
// on untraced runs.
func setUp(w workload, rc runConfig, ref *reference, requests int, sink *gatedSink) (env, error) {
	qm, err := buildModel(w.Model)
	if err != nil {
		return nil, err
	}
	var ts traceSink // stays a nil interface on untraced runs, which is what turns tracing off
	if sink != nil {
		ts = sink
	}
	if w.Churn {
		rt, err := openRuntime(qm, rc.Seed, partyWorkers(), ts)
		if err != nil {
			return nil, err
		}
		e := &churnEnv{ref: ref, rt: rt, sink: ts}
		for i := 0; i < w.WarmUps; i++ {
			if _, err := e.request(0, i); err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return e, nil
	}
	e := &sessionEnv{w: w, ref: ref}
	opts := sessionOpts{Seed: rc.Seed, Workers: partyWorkers(), Trace: ts}
	if w.Banked {
		n := w.WarmUps + requests
		if e.bank, err = newBank(qm, rc.Seed, partyWorkers(), w.Batch, n); err != nil {
			return nil, err
		}
		if e.fills, err = e.bank.fill(n); err != nil {
			e.bank.close()
			return nil, fmt.Errorf("bank fill: %w", err)
		}
		opts.Bank = e.bank
	}
	if w.WAN {
		e.shaper = newShaper(rc.Link)
		opts.Shaper = e.shaper
	}
	if e.s, err = openSession(qm, opts); err != nil {
		if e.bank != nil {
			e.bank.close()
		}
		return nil, err
	}
	for i := 0; i < w.WarmUps; i++ {
		res, err := e.request(0, i)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		e.warm = append(e.warm, res.Seconds)
	}
	if e.shaper != nil {
		e.shaper.enable(true)
	}
	return e, nil
}

// window is the outcome of one timed closed loop.
type window struct {
	Wall        float64
	Latencies   []float64
	Predictions int
	Attempted   int
	Failed      int
	Stats       wireStats // sum over the requests that succeeded
	Handshakes  []float64
	Dials       []float64
	Errors      []string
}

func (a *window) add(b window) {
	a.Wall += b.Wall
	a.Latencies = append(a.Latencies, b.Latencies...)
	a.Predictions += b.Predictions
	a.Attempted += b.Attempted
	a.Failed += b.Failed
	a.Stats = a.Stats.Add(b.Stats)
	a.Handshakes = append(a.Handshakes, b.Handshakes...)
	a.Dials = append(a.Dials, b.Dials...)
	a.Errors = append(a.Errors, b.Errors...)
}

func (a *window) succeeded() int { return a.Attempted - a.Failed }

// runWindow drives e in a closed loop: each client sends its next request
// when the previous one has returned, for fixed requests when fixed is
// positive and for the time box otherwise. A client stops at its first
// error, since its session is gone.
func runWindow(e env, clients int, box time.Duration, fixed int) window {
	var (
		mu  sync.Mutex
		win window
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if fixed > 0 && i >= fixed || fixed <= 0 && time.Since(start) >= box {
					return
				}
				res, err := e.request(c, i)
				mu.Lock()
				win.Attempted++
				switch {
				case err != nil:
					win.Failed++
					win.Errors = append(win.Errors, err.Error())
				case res.Wrong > 0:
					win.Failed++
					win.Errors = append(win.Errors, fmt.Sprintf("%d of %d predictions differ from plaintext", res.Wrong, res.Predictions))
				}
				if err == nil {
					win.Latencies = append(win.Latencies, res.Seconds)
					win.Predictions += res.Predictions
					win.Stats = win.Stats.Add(res.Stats)
					if res.Churn.Dial > 0 {
						win.Handshakes = append(win.Handshakes, res.Churn.Handshake)
						win.Dials = append(win.Dials, res.Churn.Dial)
					}
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	win.Wall = time.Since(start).Seconds()
	return win
}

// result is one run of one workload.
type result struct {
	Attempted int
	Failed    int
	Samples   int       // requests behind predict_p50_s
	Quartiles []float64 // of the request seconds: min, q1, median, q3, max
	Errors    []string
	Metrics   map[string]metricValue
}

// runUntraced measures the end-to-end metrics: setupRounds fresh set-ups,
// each followed by its share of the timed window, with tracing off.
func runUntraced(w workload, rc runConfig) (result, error) {
	ref, err := newReference(w, rc.Seed)
	if err != nil {
		return result{}, err
	}
	var (
		setups []float64
		total  window
	)
	fixed := w.requestsPerRound(rc, false)
	box := time.Duration(rc.Seconds / setupRounds * float64(time.Second))
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		e, err := setUp(w, rc, ref, fixed, nil)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC() // every window starts from a collected heap
		win := runWindow(e, w.clients(), box, fixed)
		fmt.Fprintf(os.Stderr, "round %d: setup %.4g s, %d requests, median %.4g s, %.4g predictions/s\n",
			r+1, setups[r], len(win.Latencies), median(win.Latencies), float64(win.Predictions)/win.Wall)
		total.add(win)
		if err := e.close(); err != nil && total.Failed == 0 {
			return result{}, fmt.Errorf("close: %w", err)
		}
	}
	m := newMetricSet(endToEnd)
	n := float64(max(1, total.succeeded()))
	m.set("setup_s", median(setups))
	m.set("predict_p50_s", median(total.Latencies))
	m.set("predictions_per_s", float64(total.Predictions)/total.Wall)
	m.set("comm_mib_per_predict", float64(total.Stats.TotalBytes())/n/mib)
	m.set("flights_per_predict", float64(total.Stats.Flights)/n)
	return result{Attempted: total.Attempted, Failed: total.Failed,
		Samples: len(total.Latencies), Quartiles: quartiles(total.Latencies),
		Errors: total.Errors, Metrics: m.values}, m.complete()
}

// runTraced measures the per-layer metrics: one set-up, an untraced
// window for the process-wide counters, a traced window for the engine's
// spans, probes of the link, and the kernel replay.
func runTraced(w workload, rc runConfig) (result, error) {
	ref, err := newReference(w, rc.Seed)
	if err != nil {
		return result{}, err
	}
	m := newMetricSet(perLayer)
	fixed := w.requestsPerRound(rc, true)
	box := time.Duration(rc.Seconds / 3 * float64(time.Second))

	// Untraced window: latency to compare against, allocation and GC.
	e, err := setUp(w, rc, ref, fixed, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := runWindow(e, w.clients(), box, fixed)
	runtime.ReadMemStats(&after)
	facts := e.facts()
	if err := e.close(); err != nil && plain.Failed == 0 {
		return result{}, fmt.Errorf("close: %w", err)
	}
	total := plain
	n := float64(max(1, plain.succeeded()))
	p50 := median(plain.Latencies)
	tail, _ := p90(plain.Latencies)
	m.set("abnn2.predict_p90_s", tail)
	m.set("abnn2.alloc_mib_per_predict", float64(after.TotalAlloc-before.TotalAlloc)/n/mib)
	m.set("abnn2.mallocs_per_predict", float64(after.Mallocs-before.Mallocs)/n)
	m.set("abnn2.gc_pause_ms_per_predict", float64(after.PauseTotalNs-before.PauseTotalNs)/n/1e6)
	dial, retries := facts.Dial, int64(0)
	if w.Churn {
		dial = median(plain.Dials)
		// Every handshake beyond one per client visit is a retry.
		retries = facts.Serve.Handshakes - int64(plain.Attempted+w.WarmUps)
	}
	m.set("abnn2.dial_s", dial)
	m.set("bank.fill_s_per_corr", median(facts.Fills))
	m.set("bank.hits", float64(facts.BankHits))
	m.set("bank.misses", float64(facts.BankMisses))
	m.set("serve.handshake_s", median(plain.Handshakes))
	m.set("serve.sessions_admitted", float64(facts.Serve.Admitted))
	m.set("serve.rejections", float64(facts.Serve.Rejections))
	m.set("serve.retries", float64(retries))
	m.set("serve.degraded", float64(facts.Serve.Degraded))

	// Traced window: a second set-up with the sink on both parties.
	sink := &gatedSink{}
	e, err = setUp(w, rc, ref, fixed, sink)
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	runtime.GC()
	armedAt := time.Now()
	sink.armed.Store(true)
	traced := runWindow(e, w.clients(), box, fixed)
	// Hang up before disarming: the server ends its last spans after the
	// client holds the answer.
	cerr := e.close()
	sink.armed.Store(false)
	if cerr != nil && traced.Failed == 0 {
		return result{}, fmt.Errorf("close: %w", cerr)
	}
	total.add(traced)
	if err := dumpTrace(rc.OutDir, w.Name, sink); err != nil {
		return result{}, err
	}
	res := result{Attempted: total.Attempted, Failed: total.Failed,
		Samples: len(plain.Latencies), Errors: total.Errors, Metrics: m.values}
	if total.Failed > 0 {
		// The spans of a failed window are not a ledger; report the failure.
		for _, d := range perLayer {
			if _, ok := m.values[d.Name]; !ok {
				m.set(d.Name, 0)
			}
		}
		return res, nil
	}
	led, err := buildLedger(sink.spans, armedAt)
	if err != nil {
		return result{}, err
	}
	tracedP50 := median(traced.Latencies)
	m.set("core.offline_span_s", led.Offline)
	m.set("core.triplets_span_s", led.Triplets)
	m.set("core.online_span_s", led.Online)
	m.set("core.matmul_span_s", led.Matmul)
	m.set("core.relu_span_s", led.ReLU)
	m.set("core.pool_span_s", led.Pool)
	m.set("core.argmax_span_s", led.Argmax)
	m.set("core.input_span_s", led.Input)
	m.set("core.output_span_s", led.Output)
	m.set("core.offline_comm_mib", led.OfflineBytes/mib)
	m.set("core.online_comm_mib", led.OnlineBytes/mib)
	m.set("core.offline_flights", led.OfflineFlights)
	m.set("core.online_flights", led.OnlineFlights)
	m.set("core.tiling_residual_share", led.Residual)
	m.set("bank.draw_s", led.Bank)
	m.set("abnn2.batch_overhead_s", led.Batch-led.Bank-led.Offline-led.Online)
	m.set("trace.overhead_share", share(tracedP50, p50)-1)
	m.set("trace.spans_per_predict", led.SpansPerRequest)

	// The link: probes over a fresh connection pair, and the program's
	// link model against what was measured.
	var sh *shaper
	model := lanModel
	if w.WAN {
		sh, model = newShaper(rc.Link), rc.Link
		sh.enable(true)
	}
	if err := probeLink(sh, m); err != nil {
		return result{}, fmt.Errorf("link probe: %w", err)
	}
	unshaped := p50
	if w.WAN {
		unshaped = median(facts.Warm)
	}
	perRequest := wireStats{
		BytesAB: plain.Stats.BytesAB / int64(n), BytesBA: plain.Stats.BytesBA / int64(n),
		Messages: plain.Stats.Messages / int64(n), Flights: plain.Stats.Flights / int64(n),
	}
	pred := netModelPredict(model, unshaped, perRequest)
	m.set("transport.wire_wait_s", p50-unshaped)
	m.set("transport.netmodel_pred_s", pred)
	m.set("transport.netmodel_rel_err", share(pred-p50, p50))

	// The replay: each layer's public functions at this request's shapes.
	fragN, err := schemeFragments(ref.scheme)
	if err != nil {
		return result{}, err
	}
	rs := deriveShapes(ref.arch, fragN, w.Batch, w.Private)
	blocking, err := replay(rs, ref.scheme, partyWorkers(), !w.Banked, m)
	if err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	m.set("ledger.unattributed_share", 1-share(blocking, p50))
	m.set("abnn2.peak_rss_mib", peakRSSMiB())
	return res, m.complete()
}

// probeLink measures a 1 KiB ping-pong and a stream of 1 MiB frames over
// a fresh framed connection, shaped like the workload's.
func probeLink(sh *shaper, m *metricSet) error {
	e, err := openEcho(sh)
	if err != nil {
		return err
	}
	ping := make([]byte, 1<<10)
	if err := e.roundTrip(ping); err != nil { // connection warm-up
		e.close()
		return err
	}
	var trips []float64
	for i := 0; i < 2*replayReps; i++ {
		t0 := time.Now()
		if err := e.roundTrip(ping); err != nil {
			e.close()
			return err
		}
		trips = append(trips, time.Since(t0).Seconds())
	}
	const frames = 8
	t0 := time.Now()
	if err := e.stream(make([]byte, mib), frames); err != nil {
		e.close()
		return err
	}
	streamed := time.Since(t0).Seconds()
	m.set("transport.pingpong_us", median(trips)*1e6)
	m.set("transport.stream_mib_per_s", frames/streamed)
	return e.close()
}

// dumpTrace writes the traced window's spans and flights where the
// program's own inspection tools can read them.
func dumpTrace(dir, name string, sink *gatedSink) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(dir + "/" + name + ".trace.jsonl")
	if err != nil {
		return err
	}
	buf := bufio.NewWriter(f)
	writeTrace(buf, sink.spans, sink.flights)
	if err := buf.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMiB reads the process's high-water resident set from
// /proc/self/status, 0 where that does not exist.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
