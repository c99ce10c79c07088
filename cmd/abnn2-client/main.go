// Command abnn2-client connects to abnn2-server, completes the model
// handshake, and requests secure predictions for synthetic inputs. The
// server never sees the inputs; the client never sees the weights.
//
// The connect is retried with capped, jittered exponential backoff until
// -dial-timeout expires, so the client can be started before (or
// concurrently with) the server. Server backpressure is honored: a
// typed retryable rejection (saturated, bank-dry, draining) makes the
// client wait the server's retry-after hint — jittered, so a herd of
// shed clients does not stampede back together — and reconnect until
// admitted or out of budget. -round-timeout bounds each protocol round
// once admitted.
//
// With -bank-dir the client keeps a durable correlation store of its
// own: -prefetch N first opens a replenishment session against the
// server and runs the offline phase N times early — the genuine
// two-party protocol, no dealer, under -plan when one is given — each
// party persisting its half, and the inference session then provisions
// each batch from that store (announcing the stored correlation id)
// instead of running the offline phase inline. Prefetched material
// survives restarts and stays bound to the server peer and the plan it
// was generated with.
//
// Usage:
//
//	abnn2-client -connect localhost:9000 -n 4
//	abnn2-client -connect localhost:9000 -model mnist -n 4
//	abnn2-client -connect localhost:9000 -bank-dir /var/lib/abnn2 -prefetch 8 -n 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"abnn2"
	"abnn2/internal/bank"
	"abnn2/internal/plan"
	"abnn2/internal/serve"
)

func main() {
	addr := flag.String("connect", "localhost:9000", "server address")
	model := flag.String("model", "", "model name to request (empty = server default)")
	n := flag.Int("n", 4, "number of inputs to classify (one batch)")
	ringBits := flag.Uint("ring", 64, "share ring bit width l (must match server)")
	optRelu := flag.Bool("optimized-relu", false, "must match the server's setting")
	seed := flag.Uint64("dataset-seed", 7, "synthetic dataset seed")
	workers := flag.Int("workers", 0, "worker goroutines for protocol kernels (0 = one per CPU)")
	dialTimeout := flag.Duration("dial-timeout", 30*time.Second, "total connect budget including retries and admission backoff")
	roundTimeout := flag.Duration("round-timeout", time.Minute, "per-round protocol deadline (0 = unbounded)")
	traceOut := flag.String("trace-out", "", "append protocol spans as JSONL to this file (empty = off)")
	bankDir := flag.String("bank-dir", "", "durable correlation store directory for peer-paired offline material (empty = off)")
	prefetch := flag.Int("prefetch", 0, "first open a replenishment session stocking this many correlations of batch -n (requires -bank-dir)")
	planFlag := flag.String("plan", "", plan.FlagUsage)
	linkFlag := flag.String("link", "wan", "link model pricing -plan auto: lan, wan, or MBps:RTTms")
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "abnn2-client")
	if *prefetch > 0 && *bankDir == "" {
		logger.Error("-prefetch requires -bank-dir")
		os.Exit(1)
	}

	var traceSink abnn2.TraceSink
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("open trace output", "err", err)
			os.Exit(1)
		}
		defer f.Close()
		traceSink = abnn2.NewTraceWriter(f)
	}

	// Durable client-side correlation store: peer-paired offline material
	// lands here and survives restarts, with claim-before-use keeping
	// every correlation single-use even through crashes.
	var store *abnn2.BankStore
	var cbank *abnn2.Bank
	if *bankDir != "" {
		var err error
		store, err = abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: *bankDir})
		if err != nil {
			logger.Error("open bank store", "dir", *bankDir, "err", err)
			os.Exit(1)
		}
		defer store.Close()
		rstats, err := store.Recover()
		if err != nil {
			logger.Error("bank store recovery", "dir", *bankDir, "err", err)
			os.Exit(1)
		}
		logger.Info("bank store recovered", "dir", *bankDir, "peer", store.PeerID().String(),
			"records", rstats.Records, "claimed", rstats.Claimed,
			"torn_tails", rstats.TornTails, "quarantined", rstats.Quarantined)
		cbank = abnn2.NewBank(abnn2.BankOptions{Capacity: *prefetch, Workers: *workers, Store: store})
		defer cbank.Close()
	}

	baseCfg := abnn2.Config{
		RingBits:      *ringBits,
		OptimizedReLU: *optRelu,
		Workers:       *workers,
		RoundTimeout:  *roundTimeout,
		Trace:         traceSink,
	}
	dialFailed := func(what string, err error) {
		var rej *serve.RejectError
		if errors.As(err, &rej) {
			logger.Error("server rejected the "+what, "code", rej.Rejection.Code,
				"retryable", rej.Rejection.Retryable, "reason", rej.Rejection.Reason)
		} else {
			logger.Error(what+" failed", "addr", *addr, "err", err)
		}
		os.Exit(1)
	}

	// The plan is computed from public state only (architecture, ring
	// width, batch, link), once, from the first admitted handshake; every
	// session of this run announces it and the server re-validates it per
	// batch.
	var sessPlan *abnn2.Plan
	planFor := func(arch abnn2.Arch) *abnn2.Plan {
		if *planFlag == "" || sessPlan != nil {
			return sessPlan
		}
		link, err := plan.ParseLink(*linkFlag)
		if err != nil {
			logger.Error("bad -link", "err", err)
			os.Exit(1)
		}
		p, est, err := plan.FromFlag(*planFlag, plan.Input{
			Arch: arch, RingBits: *ringBits, Batch: *n, Link: link})
		if err != nil {
			logger.Error("bad -plan", "err", err)
			os.Exit(1)
		}
		fmt.Printf("plan: %s\n", p)
		fmt.Print(est.Table())
		sessPlan = p
		return p
	}

	// Prefetch: run the genuine two-party offline protocol ahead of need,
	// each party storing its half under the other's peer id. The initial
	// fill is synchronous — inference should find the pool warm — and a
	// background replenisher then keeps it above the low watermark for as
	// long as the process lives.
	if *prefetch > 0 {
		// prefetchSession opens one replenishment session and stores up to
		// want correlations of batch -n.
		prefetchSession := func(ctx context.Context, want int) (int, serve.HandshakeInfo, error) {
			ctx, cancel := context.WithTimeout(ctx, *dialTimeout)
			defer cancel()
			conn, info, err := serve.DialOffline(ctx, *addr, *model)
			if err != nil {
				return 0, info, err
			}
			defer conn.Close()
			cfg := baseCfg
			cfg.Bank, cfg.BankModel, cfg.BankPeer = cbank, info.BankID, info.Peer
			cfg.SessionID, cfg.Plan = info.SessionID, planFor(info.Arch)
			client, err := abnn2.DialContext(ctx, conn, info.Arch, cfg)
			if err != nil {
				return 0, info, err
			}
			defer client.Close()
			got, err := client.Prefetch(*n, want)
			return got, info, err
		}
		start := time.Now()
		got, oinfo, err := prefetchSession(context.Background(), *prefetch)
		if err != nil {
			dialFailed("replenishment session", err)
		}
		logger.Info("correlations prefetched", "stored", got, "batch", *n,
			"dur", time.Since(start).Round(time.Millisecond))
		serverPeer, err := abnn2.ParseBankPeerID(oinfo.Peer)
		if err != nil {
			logger.Error("server peer id", "peer", oinfo.Peer, "err", err)
			os.Exit(1)
		}

		// Background replenishment: every draw during inference lowers the
		// pool; the replenisher tops it back up to the prefetch target with
		// fresh replenishment sessions, so a long-lived client never
		// degrades to the inline offline phase.
		low := *prefetch / 2
		if low < 1 {
			low = 1
		}
		backend := abnn2.BankSessionBackend
		if sessPlan != nil {
			backend = bank.PlanBackend(sessPlan.Fingerprint())
		}
		rep, err := abnn2.NewBankReplenisher(abnn2.BankReplenishOptions{
			Bank: cbank,
			Peer: serverPeer,
			Keys: []abnn2.BankKey{{Model: oinfo.BankID, Scheme: oinfo.Arch.SchemeName,
				RingBits: *ringBits, Batch: *n, Backend: backend}},
			Low:    low,
			Target: *prefetch,
			Run: func(ctx context.Context, _ abnn2.BankKey, want int) (int, error) {
				got, _, err := prefetchSession(ctx, want)
				return got, err
			},
		})
		if err != nil {
			logger.Error("bank replenisher", "err", err)
			os.Exit(1)
		}
		rep.Start()
		defer rep.Close()
		logger.Info("background replenisher started", "low", low, "target", *prefetch)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *dialTimeout)
	defer cancel()
	dialStart := time.Now()
	conn, info, err := serve.DialModelInfo(ctx, *addr, *model)
	if err != nil {
		dialFailed("connection", err)
	}
	defer conn.Close()
	if traceSink != nil && info.SessionID != 0 {
		// Record connect + handshake + admission wait as a client-side
		// "dial" span, so the merged timeline can attribute pre-protocol
		// time to the admission queue rather than to compute.
		traceSink.Emit(abnn2.TraceSpan{ID: 1<<62 | info.SessionID, Party: "client",
			Session: info.SessionID, Name: "dial", Layer: -1,
			Start: dialStart, Dur: time.Since(dialStart)})
	}
	arch := info.Arch
	fmt.Printf("architecture: %d layers, input %d, output %d, scheme %s\n",
		len(arch.Layers), arch.InputSize(), arch.OutputSize(), arch.SchemeName)

	cfg := baseCfg
	cfg.SessionID = info.SessionID
	cfg.Plan = planFor(arch)
	if cbank != nil && info.BankID != "" && info.Peer != "" {
		// Provision from the durable peer-paired pool; a dry pool falls
		// back to the inline offline phase (OfflineAuto).
		cfg.Bank, cfg.BankModel, cfg.BankPeer = cbank, info.BankID, info.Peer
	}
	client, err := abnn2.Dial(conn, arch, cfg)
	if err != nil {
		logger.Error("setup", "err", err)
		os.Exit(1)
	}
	defer client.Close()
	ds := abnn2.SyntheticDataset(*n, *seed)
	start := time.Now()
	classes, err := client.Classify(ds.Inputs)
	if err != nil {
		logger.Error("classify", "err", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	correct := 0
	for i, c := range classes {
		fmt.Printf("input %2d: predicted class %d (true label %d)\n", i, c, ds.Labels[i])
		if c == ds.Labels[i] {
			correct++
		}
	}
	fmt.Printf("%d/%d match the true labels; batch took %v (offline+online)\n", correct, len(classes), elapsed)
	stats := client.Stats()
	fmt.Printf("traffic: sent %d B, received %d B, %d messages, %d flights\n",
		stats.BytesAB, stats.BytesBA, stats.Messages, stats.Flights)
}
