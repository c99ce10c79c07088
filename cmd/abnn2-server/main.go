// Command abnn2-server serves secure predictions over TCP through the
// resilient multi-tenant runtime in internal/serve. On each accepted
// connection the client opens with a model handshake (naming one of the
// hot models, or the default); the server answers with the model's
// public architecture (shapes, ReLU positions, scheme name, fixed-point
// precision — never weights) and serves secure inference batches until
// the client disconnects, or sheds the connection with a typed,
// retryable rejection carrying a retry-after hint.
//
// Resilience: admission is bounded (-max-conns session slots sized
// against worker-pool capacity), the handshake runs under
// -handshake-timeout so a slow-loris client can never pin a slot,
// protocol rounds are bounded by -round-timeout, panics are contained at
// the session boundary, and SIGINT/SIGTERM triggers a graceful drain —
// new handshakes are shed as "draining", in-flight batches run to
// completion within -grace, then remaining sessions are aborted. With a
// correlation bank configured (-bank-dir, sized by -bank-capacity) clients run
// the offline phase ahead of need and later sessions claim the stored
// halves; a batch whose client found its pool dry runs the offline phase
// inline (or is refused under -offline banked).
//
// Observability: every session is assigned an ID that correlates its
// structured log lines, trace spans, and metrics. -metrics-addr starts
// an HTTP endpoint exposing Prometheus text at /metrics, an
// expvar-style JSON document at /vars, liveness and readiness at
// /healthz and /readyz (ready gates on bank store recovery and flips off
// at drain), and the pprof profiles under /debug/pprof/. -trace-out
// appends every protocol span to a JSONL file that abnn2-inspect -trace
// can replay into a breakdown table.
//
// Usage:
//
//	abnn2-train -out model.json
//	abnn2-server -model model.json -models alt=other.json -listen :9000 -metrics-addr :9090
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"abnn2"
	"abnn2/internal/bank"
	"abnn2/internal/metrics"
	"abnn2/internal/plan"
	"abnn2/internal/serve"
)

func main() {
	modelPath := flag.String("model", "model.json", "default quantized model JSON (registered under its file stem)")
	extraModels := flag.String("models", "", "additional hot models as comma-separated name=path pairs")
	listen := flag.String("listen", ":9000", "listen address")
	ringBits := flag.Uint("ring", 64, "share ring bit width l")
	optRelu := flag.Bool("optimized-relu", false, "use the sign-leaking optimized ReLU (section 4.2)")
	workers := flag.Int("workers", 0, "worker goroutines for protocol kernels (0 = one per CPU)")
	maxConns := flag.Int("max-conns", 0, "maximum concurrently admitted sessions (0 = derive from CPU count and -workers)")
	handshakeTimeout := flag.Duration("handshake-timeout", 10*time.Second, "deadline for a new connection to complete the model handshake")
	roundTimeout := flag.Duration("round-timeout", time.Minute, "per-round protocol deadline (0 = unbounded)")
	grace := flag.Duration("grace", 30*time.Second, "drain period for in-flight sessions on shutdown")
	maxMsg := flag.Int("max-message", 0, "per-message size limit in bytes (0 = default 64 MiB)")
	offlineMode := flag.String("offline", "auto", "offline provisioning: auto (bank with inline fallback), banked (refuse inline batches; requires -bank-dir)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /vars, /healthz, /readyz, /debug/flightrecorder and /debug/pprof on this address (empty = off)")
	traceOut := flag.String("trace-out", "", "append protocol spans and flight stamps as JSONL to this file (empty = off)")
	slo := flag.Duration("slo", 0, "per-session latency SLO; breaches count in abnn2_slo_breaches_total and trigger diagnostics dumps (0 = off)")
	diagDir := flag.String("diag-dir", "", "write anomaly-triggered flight-recorder dumps (SLO breach, session error, shed) to this directory (empty = off)")
	diagProfile := flag.Duration("diag-profile", 0, "capture a CPU profile window of this length on each anomaly burst (0 = off; requires -diag-dir)")
	recorderEvents := flag.Int("recorder-events", abnn2.DefaultRecorderEvents, "flight-recorder ring size per session (0 = disable the recorder)")
	recorderSessions := flag.Int("recorder-sessions", abnn2.DefaultRecorderSessions, "flight-recorder session rings kept (LRU)")
	bankCap := flag.Int("bank-capacity", 0, "correlation pool capacity per (client peer, model, batch): how many "+
		"unspent halves one remote client may keep in -bank-dir (0 = the bank's default of 8; requires -bank-dir)")
	bankDir := flag.String("bank-dir", "", "durable bank store directory: remote clients may run peer-paired offline "+
		"replenishment sessions, and the halves they leave here survive restarts (empty = no bank)")
	planFlag := flag.String("plan", "", "required "+plan.FlagUsage+"; single-model registries only")
	linkFlag := flag.String("link", "wan", "link model pricing -plan auto: lan, wan, or MBps:RTTms")
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "abnn2-server")

	mode, err := bankFlags(*offlineMode, *bankDir, *bankCap)
	if err != nil {
		logger.Error("bad bank flags", "err", err)
		os.Exit(1)
	}

	// Model registry: -model is the default entry, -models adds more hot
	// models, each admissible by name in the client handshake.
	registry := serve.NewRegistry()
	loadModel := func(name, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			logger.Error("read model", "path", path, "err", err)
			os.Exit(1)
		}
		qm, err := abnn2.LoadQuantizedModel(data)
		if err != nil {
			logger.Error("parse model", "path", path, "err", err)
			os.Exit(1)
		}
		if _, err := registry.Add(name, qm); err != nil {
			logger.Error("register model", "name", name, "err", err)
			os.Exit(1)
		}
		logger.Info("model registered", "name", name, "scheme", qm.Scheme())
	}
	loadModel(modelStem(*modelPath), *modelPath)
	for _, pair := range splitNonEmpty(*extraModels) {
		name, path, ok := strings.Cut(pair, "=")
		if !ok {
			logger.Error("bad -models entry (want name=path)", "entry", pair)
			os.Exit(1)
		}
		loadModel(strings.TrimSpace(name), strings.TrimSpace(path))
	}

	// Telemetry: the metrics bridge always aggregates spans (the cost is
	// a few counter updates per phase); the HTTP endpoint and the JSONL
	// dump are opt-in.
	reg := metrics.NewRegistry()
	srvMetrics := metrics.NewServerMetrics(reg)
	serveMetrics := serve.NewMetrics(reg)
	traceSink := abnn2.TraceSink(srvMetrics)
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("open trace output", "err", err)
			os.Exit(1)
		}
		defer f.Close()
		traceSink = abnn2.MultiTraceSink(srvMetrics, abnn2.NewTraceWriter(f))
	}

	// Correlation bank: holds the server halves of the correlations
	// remote clients generate with this server ahead of need (offline
	// replenishment sessions into -bank-dir), which their later sessions
	// claim in place of the inline offline phase. The bank's loopback
	// pools need client and server in one process and are not filled here,
	// so the bank exists only with the store that remote clients fill.
	var corrBank *abnn2.Bank
	var store *abnn2.BankStore
	if *bankDir != "" {
		obs := bank.LogClaims(logger, bank.NewMetricsObserver(reg))
		store, err = abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: *bankDir, Observer: obs})
		if err != nil {
			logger.Error("open bank store", "dir", *bankDir, "err", err)
			os.Exit(1)
		}
		logger.Info("durable bank store up", "dir", *bankDir, "peer", store.PeerID().String())
		corrBank = abnn2.NewBank(abnn2.BankOptions{
			Capacity: *bankCap,
			Observer: obs,
			Store:    store,
		})
		logger.Info("correlation bank up", "capacity", corrBank.Capacity(), "models", registry.Len())
	}

	// Flight recorder and anomaly diagnostics: the recorder is always on
	// (a bounded in-memory ring per session) unless sized to zero; the
	// diagnostics directory turns anomalies into on-disk dumps.
	var recorder *abnn2.FlightRecorder
	if *recorderEvents > 0 {
		recorder = abnn2.NewFlightRecorder(*recorderEvents, *recorderSessions)
	}
	if *diagDir != "" {
		if err := os.MkdirAll(*diagDir, 0o755); err != nil {
			logger.Error("create diagnostics dir", "dir", *diagDir, "err", err)
			os.Exit(1)
		}
	}

	// Required plan: every session must announce exactly this per-layer
	// backend schedule. The plan is per-model (layer counts must match),
	// so it is limited to single-model registries.
	var reqPlan abnn2.Plan
	if *planFlag != "" {
		if registry.Len() != 1 {
			logger.Error("-plan requires a single-model registry", "models", registry.Len())
			os.Exit(1)
		}
		link, err := plan.ParseLink(*linkFlag)
		if err != nil {
			logger.Error("bad -link", "err", err)
			os.Exit(1)
		}
		p, est, err := plan.FromFlag(*planFlag, plan.Input{
			Arch: registry.Default().Quant.Arch(), RingBits: *ringBits, Batch: 1, Link: link})
		if err != nil {
			logger.Error("bad -plan", "err", err)
			os.Exit(1)
		}
		reqPlan = p
		logger.Info("plan required", "plan", p.String())
		os.Stderr.WriteString(est.Table())
	}

	rt, err := serve.New(serve.Options{
		Registry:         registry,
		MaxSessions:      *maxConns,
		HandshakeTimeout: *handshakeTimeout,
		Session: abnn2.Config{
			RingBits:      *ringBits,
			OptimizedReLU: *optRelu,
			Workers:       *workers,
			RoundTimeout:  *roundTimeout,
			Trace:         traceSink,
			Bank:          corrBank,
			OfflineMode:   mode,
			Plan:          reqPlan,
		},
		Metrics:     serveMetrics,
		Logger:      logger,
		Recorder:    recorder,
		SLO:         *slo,
		DiagDir:     *diagDir,
		DiagProfile: *diagProfile,
	})
	if err != nil {
		logger.Error("serve runtime", "err", err)
		os.Exit(1)
	}
	if store != nil {
		// Readiness gates on recovery: /readyz answers 503 until the
		// durable store's recovery scan has completed.
		rt.StartRecovery(store)
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/vars", reg.JSONHandler())
		mux.Handle("/healthz", rt.HealthzHandler())
		mux.Handle("/readyz", rt.ReadyzHandler())
		mux.Handle("/debug/flightrecorder", rt.FlightRecorderHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics endpoint", "err", err)
			}
		}()
		defer msrv.Close()
		logger.Info("metrics endpoint up", "addr", *metricsAddr)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen", "err", err)
		os.Exit(1)
	}
	logger.Info("serving",
		"models", strings.Join(registry.Names(), ","), "addr", ln.Addr().String(),
		"ring", *ringBits, "relu_optimized", *optRelu, "offline", mode.String(),
		"max_sessions", rt.Admission().Max(), "round_timeout", *roundTimeout)

	// Shutdown protocol: the signal closes the listener (unblocking
	// Accept) and drains the runtime — new handshakes are shed as
	// "draining", in-flight sessions keep their own context so they can
	// finish within the grace period before being cancelled.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	connCtx, abortConns := context.WithCancel(context.Background())
	defer abortConns()
	go func() {
		<-sigCtx.Done()
		ln.Close()
	}()

	var acceptDelay time.Duration
	for {
		tcp, err := ln.Accept()
		if err != nil {
			if sigCtx.Err() != nil {
				break // shutting down; the listener was closed on purpose
			}
			// Transient accept failures (fd exhaustion, aborted handshakes)
			// must not kill a server with live sessions: back off and retry.
			if acceptDelay == 0 {
				acceptDelay = 50 * time.Millisecond
			} else if acceptDelay *= 2; acceptDelay > time.Second {
				acceptDelay = time.Second
			}
			logger.Warn("accept failed", "err", err, "retry_in", acceptDelay)
			time.Sleep(acceptDelay)
			continue
		}
		acceptDelay = 0
		srvMetrics.ConnsTotal.Inc()
		// The runtime owns the connection's whole lifecycle: handshake
		// deadline, admission or typed rejection, session serve, close.
		go func() {
			srvMetrics.ConnsActive.Add(1)
			defer srvMetrics.ConnsActive.Add(-1)
			start := time.Now()
			// The outcome — shed, failed handshake, failed or finished
			// session — is booked by the runtime (abnn2_serve_*).
			_ = rt.HandleConn(connCtx, abnn2.StreamLimit(tcp, *maxMsg), tcp.RemoteAddr().String())
			srvMetrics.SessionSeconds.Observe(time.Since(start).Seconds())
		}()
	}

	dctx, cancelDrain := context.WithTimeout(context.Background(), *grace)
	if err := rt.Drain(dctx); err != nil {
		logger.Warn("shutdown: grace period expired, aborting in-flight sessions", "err", err)
		abortConns()
		_ = rt.Drain(context.Background())
	} else {
		logger.Info("shutdown: all sessions drained")
	}
	cancelDrain()
	if corrBank != nil {
		_ = corrBank.Close()
		logger.Info("shutdown: correlation bank closed")
	}
	if store != nil {
		if err := store.Close(); err != nil {
			logger.Warn("shutdown: bank store close", "err", err)
		} else {
			logger.Info("shutdown: bank store closed")
		}
	}
}

// bankFlags checks how -offline, -bank-dir and -bank-capacity combine and
// returns the offline mode. The bank exists if and only if -bank-dir is
// set: this server never fills its loopback pools, and without a store the
// hello reply names no bank a remote client could fill or draw from, so a
// storeless bank would only fail batches. -bank-capacity sizes that bank
// and -offline banked relies on it; both are refused without it.
func bankFlags(offline, bankDir string, bankCap int) (abnn2.OfflineMode, error) {
	mode, err := abnn2.ParseOfflineMode(offline)
	switch {
	case err != nil:
		return 0, err
	case bankCap < 0:
		return 0, fmt.Errorf("-bank-capacity %d is negative", bankCap)
	case bankDir == "" && mode == abnn2.OfflineBanked:
		return 0, errors.New("-offline banked requires -bank-dir")
	case bankDir == "" && bankCap != 0:
		return 0, errors.New("-bank-capacity requires -bank-dir")
	}
	return mode, nil
}

// modelStem names a model after its file: "models/mnist.json" → "mnist".
func modelStem(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
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
