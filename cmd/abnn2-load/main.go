// Command abnn2-load is the load generator for the serving runtime: it
// drives many concurrent secure-inference clients — in-memory against an
// embedded runtime, or over TCP against a running abnn2-server — and
// reports latency quantiles and throughput from the live
// internal/metrics series.
//
// Every client honors the server's backpressure protocol: a typed
// retryable rejection (saturated, bank-dry, draining) is retried after
// the server's retry-after hint with jitter, so the generator doubles as
// a conformance check of the admission path. -require-hints turns a
// retryable rejection without a hint into a non-zero exit, which the CI
// loadtest job asserts on.
//
// In-memory mode (the default) builds its own multi-tenant runtime:
// -tenants small synthetic models (or the one model given with -model)
// behind a bounded admission controller (-max-sessions) — thousands of
// clients are then pipe pairs, no sockets needed. Its sessions run the
// offline phase inline; a correlation bank belongs to the two-process
// flow (abnn2-server -bank-dir, abnn2-client -prefetch). TCP mode
// (-connect) exercises a real server end-to-end, including DialTCP's
// jittered backoff; its clients take the ring width and ReLU protocol
// from the server's handshake, so -ring and -optimized-relu configure the
// embedded runtime only.
//
// Usage:
//
//	abnn2-load -clients 64 -duration 10s -max-sessions 8
//	abnn2-load -connect localhost:9000 -clients 32 -duration 5s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abnn2"
	"abnn2/internal/metrics"
	"abnn2/internal/serve"
	"abnn2/internal/transport"
)

func main() {
	connect := flag.String("connect", "", "server address for TCP mode (empty = embedded in-memory runtime)")
	modelPath := flag.String("model", "", "quantized model JSON for the embedded runtime (empty = synthetic models)")
	modelNames := flag.String("model-names", "", "comma-separated model names clients request round-robin (empty = server default)")
	tenants := flag.Int("tenants", 2, "synthetic models to register in the embedded runtime")
	clients := flag.Int("clients", 16, "concurrent clients")
	duration := flag.Duration("duration", 5*time.Second, "load duration (ignored when -requests > 0)")
	requests := flag.Int("requests", 0, "requests per client (0 = run until -duration)")
	sessionBatches := flag.Int("session-batches", 4, "batches per session before a client reconnects (slot turnover)")
	batch := flag.Int("batch", 1, "inputs per prediction batch")
	ringBits := flag.Uint("ring", 32, "embedded runtime share ring bit width l (TCP mode takes the server's)")
	optRelu := flag.Bool("optimized-relu", false, "embedded runtime uses the sign-leaking optimized ReLU (TCP mode takes the server's)")
	workers := flag.Int("workers", 1, "worker goroutines per session kernel")
	roundTimeout := flag.Duration("round-timeout", time.Minute, "per-round protocol deadline")
	maxSessions := flag.Int("max-sessions", 0, "embedded runtime admission capacity (0 = CPU-derived)")
	dialTimeout := flag.Duration("dial-timeout", 30*time.Second, "per-connect budget including admission retries")
	requireHints := flag.Bool("require-hints", false, "exit non-zero if any retryable rejection lacked a retry-after hint")
	seed := flag.Uint64("seed", 11, "synthetic input seed")
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "abnn2-load")

	// Latency and outcome series live in an internal/metrics registry, so
	// the report below reads the same representation a scraper would.
	reg := metrics.NewRegistry()
	st := &loadStats{
		Latency:    reg.NewHistogram("abnn2_load_latency_seconds", "End-to-end latency of one prediction batch.", metrics.DurationBuckets),
		Requests:   reg.NewCounter("abnn2_load_requests_total", "Prediction batches completed."),
		Failures:   reg.NewCounter("abnn2_load_failures_total", "Prediction batches or sessions that failed."),
		Sessions:   reg.NewCounter("abnn2_load_sessions_total", "Sessions admitted."),
		Rejections: reg.NewCounterVec("abnn2_load_rejections_total", "Typed rejections observed, by code.", "code"),
		Hintless:   reg.NewCounter("abnn2_load_hintless_rejections_total", "Retryable rejections that carried no retry-after hint."),
	}

	names := splitNonEmpty(*modelNames)
	var dial func(ctx context.Context, i int) (abnn2.Conn, abnn2.Arch, abnn2.Config, error)
	ccfg := abnn2.Config{RingBits: *ringBits, OptimizedReLU: *optRelu, Workers: *workers, RoundTimeout: *roundTimeout}

	if *connect != "" {
		addr := *connect
		dial = func(ctx context.Context, i int) (abnn2.Conn, abnn2.Arch, abnn2.Config, error) {
			conn, err := abnn2.DialTCP(ctx, addr)
			if err != nil {
				return nil, abnn2.Arch{}, ccfg, err
			}
			info, err := serve.ClientHandshakeInfo(conn, pick(names, i))
			if err != nil {
				conn.Close()
				return nil, abnn2.Arch{}, ccfg, err
			}
			cfg := ccfg
			cfg.RingBits, cfg.OptimizedReLU, cfg.SessionID = info.RingBits, info.OptimizedReLU, info.SessionID
			return conn, info.Arch, cfg, nil
		}
		fmt.Printf("mode=tcp addr=%s clients=%d\n", addr, *clients)
	} else {
		rt, err := embeddedRuntime(logger, *modelPath, *tenants, ccfg, *maxSessions)
		if err != nil {
			logger.Error("embedded runtime", "err", err)
			os.Exit(1)
		}
		if len(names) == 0 {
			names = rt.Registry().Names()
		}
		dial = func(ctx context.Context, i int) (abnn2.Conn, abnn2.Arch, abnn2.Config, error) {
			conn, arch, err := rt.Connect(ctx, pick(names, i))
			return conn, arch, ccfg, err
		}
		fmt.Printf("mode=inproc tenants=%s max_sessions=%d clients=%d\n",
			strings.Join(rt.Registry().Names(), ","), rt.Admission().Max(), *clients)
	}

	ctx := context.Background()
	var cancel context.CancelFunc
	if *requests <= 0 {
		ctx, cancel = context.WithTimeout(ctx, *duration)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			runClient(ctx, i, dial, st, *batch, *seed, *requests, *sessionBatches, *dialTimeout)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Report straight from the metrics series.
	reqs := st.Requests.Value()
	fmt.Printf("requests: %d ok, %d failed; sessions: %d admitted, %d retries after rejection\n",
		reqs, st.Failures.Value(), st.Sessions.Value(), st.Retries.Load())
	codes, counts := rejectionLines(st)
	for i, c := range codes {
		fmt.Printf("rejections[%s]: %d\n", c, counts[i])
	}
	if reqs > 0 {
		fmt.Printf("latency: p50=%s p90=%s p99=%s mean=%s\n",
			secs(st.Latency.Quantile(0.50)), secs(st.Latency.Quantile(0.90)),
			secs(st.Latency.Quantile(0.99)), secs(st.Latency.Sum()/float64(st.Latency.Count())))
		fmt.Printf("throughput: %.1f req/s over %v (batch=%d → %.1f inferences/s)\n",
			float64(reqs)/elapsed.Seconds(), elapsed.Round(time.Millisecond),
			*batch, float64(reqs)*float64(*batch)/elapsed.Seconds())
	}
	fmt.Printf("wire: sent %d B, received %d B\n", st.BytesSent.Load(), st.BytesRecvd.Load())

	switch {
	case st.Failures.Value() > 0:
		logger.Error("load run had failures", "failed", st.Failures.Value())
		os.Exit(1)
	case *requireHints && st.Hintless.Value() > 0:
		logger.Error("retryable rejections without retry-after hints", "count", st.Hintless.Value())
		os.Exit(1)
	case reqs == 0:
		logger.Error("no requests completed")
		os.Exit(1)
	}
}

// loadStats couples the metrics series with a few plain counters that
// have no natural series shape.
type loadStats struct {
	Latency    *metrics.Histogram
	Requests   *metrics.Counter
	Failures   *metrics.Counter
	Sessions   *metrics.Counter
	Rejections *metrics.CounterVec
	Hintless   *metrics.Counter

	Retries    atomic.Int64
	BytesSent  atomic.Int64
	BytesRecvd atomic.Int64
}

// runClient is one client's life: connect (riding out rejections with
// the server's hints), run a session of a few batches, reconnect, until
// the budget is spent. Session turnover is what lets shed clients take
// over freed slots mid-run.
func runClient(ctx context.Context, id int,
	dial func(context.Context, int) (abnn2.Conn, abnn2.Arch, abnn2.Config, error),
	st *loadStats, batch int, seed uint64, requests, sessionBatches int, dialTimeout time.Duration) {
	done := 0
	for ctx.Err() == nil && (requests <= 0 || done < requests) {
		conn, arch, cfg, err := connectRetry(ctx, id, dial, st, dialTimeout)
		if err != nil {
			if ctx.Err() == nil {
				st.Failures.Inc()
			}
			return
		}
		// Inputs are shaped by the model the handshake admitted us to.
		inputs := makeInputs(batch, seed+uint64(id), arch.InputSize())
		st.Sessions.Inc()
		client, err := abnn2.Dial(conn, arch, cfg)
		if err != nil {
			if ctx.Err() == nil {
				st.Failures.Inc()
			}
			conn.Close()
			continue
		}
		for b := 0; b < sessionBatches && ctx.Err() == nil && (requests <= 0 || done < requests); b++ {
			t0 := time.Now()
			if _, err := client.Classify(inputs); err != nil {
				if ctx.Err() == nil {
					st.Failures.Inc()
				}
				break
			}
			st.Latency.Observe(time.Since(t0).Seconds())
			st.Requests.Inc()
			done++
		}
		stats := client.Stats()
		st.BytesSent.Add(int64(stats.BytesAB))
		st.BytesRecvd.Add(int64(stats.BytesBA))
		client.Close()
	}
}

// connectRetry dials until admitted, honoring typed retryable
// rejections: wait the server's hint (jittered; a default when the hint
// is missing), then try again. Gives up on permanent rejections, dial
// errors, context expiry, and a spent dialTimeout budget. The dial runs
// under ctx itself — not a derived timeout — because an in-process dial
// spawns the server session on that context, which must outlive the
// connect.
func connectRetry(ctx context.Context, id int,
	dial func(context.Context, int) (abnn2.Conn, abnn2.Arch, abnn2.Config, error),
	st *loadStats, dialTimeout time.Duration) (abnn2.Conn, abnn2.Arch, abnn2.Config, error) {
	deadline := time.Now().Add(dialTimeout)
	for {
		conn, arch, cfg, err := dial(ctx, id)
		if err == nil {
			return conn, arch, cfg, nil
		}
		var rej *serve.RejectError
		if !errors.As(err, &rej) || !rej.Temporary() {
			return nil, arch, cfg, err
		}
		st.Rejections.With(rej.Rejection.Code).Inc()
		wait := rej.Rejection.RetryAfter()
		if wait <= 0 {
			st.Hintless.Inc()
			wait = 100 * time.Millisecond
		}
		if time.Now().After(deadline) {
			return nil, arch, cfg, fmt.Errorf("admission retry budget spent (last: %w)", err)
		}
		st.Retries.Add(1)
		select {
		case <-ctx.Done():
			return nil, arch, cfg, ctx.Err()
		case <-time.After(transport.Jitter(wait)):
		}
	}
}

// embeddedRuntime builds the in-memory serving runtime: tenant models
// (loaded or synthetic), admission, and logging.
func embeddedRuntime(logger *slog.Logger, modelPath string, tenants int, ccfg abnn2.Config,
	maxSessions int) (*serve.Runtime, error) {
	registry := serve.NewRegistry()
	if modelPath != "" {
		data, err := os.ReadFile(modelPath)
		if err != nil {
			return nil, err
		}
		qm, err := abnn2.LoadQuantizedModel(data)
		if err != nil {
			return nil, err
		}
		if _, err := registry.Add("m0", qm); err != nil {
			return nil, err
		}
	} else {
		if tenants < 1 {
			tenants = 1
		}
		for i := 0; i < tenants; i++ {
			// Distinct hidden sizes give each tenant a distinct
			// architecture; untrained weights are fine — load runs exercise
			// protocol cost, not accuracy.
			qm, err := abnn2.NewMLP(12, 8+2*i, 4).Quantize("4(2,2)", 6)
			if err != nil {
				return nil, err
			}
			if _, err := registry.Add(fmt.Sprintf("m%d", i), qm); err != nil {
				return nil, err
			}
		}
	}
	return serve.New(serve.Options{
		Registry:    registry,
		MaxSessions: maxSessions,
		Session:     ccfg,
		Logger:      logger,
	})
}

// makeInputs builds one deterministic batch of inputs of the given
// dimension.
func makeInputs(batch int, seed uint64, dim int) [][]float64 {
	if batch < 1 {
		batch = 1
	}
	ins := make([][]float64, batch)
	for k := range ins {
		x := make([]float64, dim)
		for i := range x {
			x[i] = float64((uint64(k*31+i*17)+seed)%23)/23 - 0.5
		}
		ins[k] = x
	}
	return ins
}

// secs renders a latency in seconds as a rounded duration; NaN (empty
// histogram) renders as "n/a".
func secs(s float64) string {
	if s != s {
		return "n/a"
	}
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

func pick(names []string, i int) string {
	if len(names) == 0 {
		return ""
	}
	return names[i%len(names)]
}

func rejectionLines(st *loadStats) ([]string, []int64) {
	type kv struct {
		code string
		n    int64
	}
	var rows []kv
	// CounterVec has no public iteration; go through the Prometheus text
	// would be overkill — track codes we know instead.
	for _, code := range []string{serve.RejectSaturated, serve.RejectBankDry, serve.RejectDraining,
		serve.RejectUnknownModel, serve.RejectBadHello} {
		if n := st.Rejections.With(code).Value(); n > 0 {
			rows = append(rows, kv{code, n})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	codes := make([]string, len(rows))
	counts := make([]int64, len(rows))
	for i, r := range rows {
		codes[i], counts[i] = r.code, r.n
	}
	return codes, counts
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
