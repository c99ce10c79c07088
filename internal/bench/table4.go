package bench

import (
	"fmt"
	"time"

	"abnn2/internal/baseline"
	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/trace"
	"abnn2/internal/transport"
)

// Table4Row records one end-to-end secure prediction measurement on the
// Figure 4 network.
type Table4Row struct {
	System string // "MiniONN" or the ABNN2 scheme name
	L      uint   // ring bits
	Batch  int
	LANSec float64
	WANSec float64 // 24.3 MB/s, 40 ms RTT (the QUOTIENT WAN setting)
	CommMB float64
	Note   string // e.g. "extrapolated from batch 8"
}

// table4Schemes matches the paper's "Our" rows.
var table4Schemes = []quant.Scheme{
	quant.NewBitScheme(true, 2, 2),
	quant.NewBitScheme(true, 2, 1),
	quant.Ternary(),
	quant.Binary(),
}

// Table4 reproduces the paper's Table 4: end-to-end prediction on the
// Figure 4 network, ABNN2 (four schemes, l in {32, 64}) vs MiniONN
// (HE offline + identical online), batch sizes 1 and 128.
//
// MiniONN at large batch is measured at a smaller batch and extrapolated
// linearly (per-sample encryptions dominate and scale exactly linearly);
// the Note column marks extrapolated rows.
func Table4(opt Options) []Table4Row {
	batches := []int{1, 128}
	shapes := fig4Shapes
	minionnCap := 8
	rings := []uint{32, 64}
	if opt.Quick {
		batches = []int{1, 8}
		shapes = []layerShape{{32, 96}, {32, 32}, {10, 32}}
		minionnCap = 2
		rings = []uint{32}
	}
	var rows []Table4Row
	for _, l := range rings {
		rg := ring.New(l)
		for _, sc := range table4Schemes {
			for _, batch := range batches {
				meas, err := runEndToEnd(rg, sc, shapes, batch, core.ReLUGC, opt,
					fmt.Sprintf("table4 %s l=%d batch=%d", sc.Name(), l, batch))
				if err != nil {
					panic(fmt.Sprintf("bench: table4 %s l=%d batch=%d: %v", sc.Name(), l, batch, err))
				}
				rows = append(rows, Table4Row{
					System: "Our " + sc.Name(),
					L:      l,
					Batch:  batch,
					LANSec: meas.timeUnder(transport.LAN),
					WANSec: meas.timeUnder(transport.WANQuotient),
					CommMB: meas.CommMB(),
				})
			}
		}
		for _, batch := range batches {
			row := measureMiniONN(rg, shapes, batch, minionnCap, opt)
			rows = append(rows, row)
		}
	}
	t := &table{header: []string{"system", "l", "batch", "LAN(s)", "WAN(s)", "comm(MB)", "note"}}
	for _, r := range rows {
		t.add(r.System, fmt.Sprint(r.L), fmt.Sprint(r.Batch), secs(r.LANSec), secs(r.WANSec), mb(r.CommMB), r.Note)
	}
	fmt.Fprintf(opt.out(), "Table 4: end-to-end prediction, Fig.4 network, vs MiniONN\n%s\n", t)
	return rows
}

// runEndToEnd measures a complete offline+online secure inference on a
// synthetic network with the given layer shapes.
func runEndToEnd(rg ring.Ring, scheme quant.Scheme, shapes []layerShape, batch int, variant core.ReLUVariant, opt Options, label string) (measurement, error) {
	return runEndToEndModel(rg, syntheticQuantized(scheme, shapes), batch, variant, nil, 0, opt, label)
}

// runEndToEndModel measures a complete offline+online secure inference
// for an explicit quantized model under a per-layer backend schedule (nil
// = the all-ABNN2 default; miniONNBits sizes the key of any MiniONN layer
// in it, 0 = the baseline's default). With opt.Trace set, both parties
// emit per-phase spans labelled with the table row identity.
func runEndToEndModel(rg ring.Ring, qm *nn.QuantizedModel, batch int, variant core.ReLUVariant, sched core.Schedule, miniONNBits int, opt Options, label string) (measurement, error) {
	scheme := qm.Layers[0].Scheme
	arch := core.ArchOf(qm)
	return runPairT(opt, label,
		func(conn transport.Conn, tr *trace.Tracer) error {
			p := core.Params{Ring: rg, Scheme: scheme, Workers: opt.Workers, Trace: tr, MiniONNBits: miniONNBits}
			cli, err := core.NewClientEngine(conn, arch, p, variant, prg.New(prg.SeedFromInt(11)))
			if err != nil {
				return err
			}
			if err := cli.SetSchedule(sched); err != nil {
				return err
			}
			if err := cli.Offline(batch); err != nil {
				return err
			}
			X := prg.New(prg.SeedFromInt(12)).Mat(rg, arch.InputSize(), batch)
			_, err = cli.Predict(X)
			return err
		},
		func(conn transport.Conn, tr *trace.Tracer) error {
			p := core.Params{Ring: rg, Scheme: scheme, Workers: opt.Workers, Trace: tr}
			srv, err := core.NewServerEngine(conn, qm, p, variant)
			if err != nil {
				return err
			}
			if err := srv.SetSchedule(sched); err != nil {
				return err
			}
			if err := srv.Offline(batch); err != nil {
				return err
			}
			return srv.Online()
		},
	)
}

// syntheticQuantized builds a quantized model with random in-range
// weights for the given shapes (benchmarks only care about cost, which is
// weight-value independent).
func syntheticQuantized(scheme quant.Scheme, shapes []layerShape) *nn.QuantizedModel {
	rng := prg.New(prg.SeedFromInt(13))
	min, max := scheme.Range()
	span := int(max - min + 1)
	qm := &nn.QuantizedModel{Frac: 8}
	for li, sh := range shapes {
		l := &nn.QuantizedLayer{
			In: sh.N, Out: sh.M,
			W:      make([]int64, sh.M*sh.N),
			B:      make([]int64, sh.M),
			Scale:  1,
			ReLU:   li+1 < len(shapes),
			Scheme: scheme,
		}
		for i := range l.W {
			l.W[i] = min + int64(rng.Intn(span))
		}
		qm.Layers = append(qm.Layers, l)
	}
	return qm
}

// measureMiniONN measures the MiniONN baseline: HE offline phase plus the
// same online phase ABNN2 uses (MiniONN's online is likewise additive
// shares + GC activations). Batches beyond cap are extrapolated.
func measureMiniONN(rg ring.Ring, shapes []layerShape, batch, maxBatch int, opt Options) Table4Row {
	measured := batch
	note := ""
	if batch > maxBatch {
		measured = maxBatch
		note = fmt.Sprintf("extrapolated from batch %d", maxBatch)
	}
	offline := func(b int) measurement {
		m, err := runMiniONNOffline(rg, shapes, b)
		if err != nil {
			panic(fmt.Sprintf("bench: minionn offline batch %d: %v", b, err))
		}
		return m
	}
	one := offline(1)
	est := one
	if measured > 1 {
		atCap := offline(measured)
		if batch > measured {
			// Linear extrapolation from (1, measured) to batch.
			scale := float64(batch-1) / float64(measured-1)
			est.Wall = one.Wall + time.Duration(float64(atCap.Wall-one.Wall)*scale)
			est.Stats.BytesAB = one.Stats.BytesAB + int64(float64(atCap.Stats.BytesAB-one.Stats.BytesAB)*scale)
			est.Stats.BytesBA = one.Stats.BytesBA + int64(float64(atCap.Stats.BytesBA-one.Stats.BytesBA)*scale)
			est.Stats.Flights = atCap.Stats.Flights
		} else {
			est = atCap
		}
	}
	// Online phase: identical to ABNN2's (binary weights used as the
	// cheapest stand-in; online cost is scheme-independent).
	online, err := runOnlineOnly(rg, shapes, batch, opt)
	if err != nil {
		panic(fmt.Sprintf("bench: minionn online batch %d: %v", batch, err))
	}
	total := measurement{Wall: est.Wall + online.Wall, Stats: est.Stats.Add(online.Stats)}
	return Table4Row{
		System: "MiniONN",
		L:      rg.Bits(),
		Batch:  batch,
		LANSec: total.timeUnder(transport.LAN),
		WANSec: total.timeUnder(transport.WANQuotient),
		CommMB: total.CommMB(),
		Note:   note,
	}
}

// runMiniONNOffline generates HE triplets for every layer.
func runMiniONNOffline(rg ring.Ring, shapes []layerShape, batch int) (measurement, error) {
	keyBits := baseline.MiniONNKeyBits
	return runPair(
		func(conn transport.Conn) error {
			rng := prg.New(prg.SeedFromInt(21))
			cl, err := baseline.NewMiniONNClient(conn, rg, keyBits, rng)
			if err != nil {
				return err
			}
			for _, sh := range shapes {
				R := rng.Mat(rg, sh.N, batch)
				if _, err := cl.GenerateClient(sh.M, R); err != nil {
					return err
				}
			}
			return nil
		},
		func(conn transport.Conn) error {
			rng := prg.New(prg.SeedFromInt(22))
			sv, err := baseline.NewMiniONNServer(conn, rg, rng)
			if err != nil {
				return err
			}
			for _, sh := range shapes {
				W := make([]int64, sh.M*sh.N)
				for i := range W {
					W[i] = int64(rng.Intn(255)) - 127
				}
				if _, err := sv.GenerateServer(W, sh.M, sh.N, batch); err != nil {
					return err
				}
			}
			return nil
		},
	)
}

// runOnlineOnly measures just the online phase of the reference engine
// (the offline phase is run but excluded from the measurement window).
func runOnlineOnly(rg ring.Ring, shapes []layerShape, batch int, opt Options) (measurement, error) {
	scheme := quant.Binary()
	qm := syntheticQuantized(scheme, shapes)
	arch := core.ArchOf(qm)
	a, b := transport.Pipe()
	ca, meter := transport.MeterEndpoint(a) // the client's count, as in runPairT
	cb, srvMeter := transport.MeterEndpoint(b)
	defer ca.Close()
	label := fmt.Sprintf("online-only batch=%d", batch)
	cliTr, srvTr := tracerOver(opt, "client", label, meter), tracerOver(opt, "server", label, srvMeter)
	cp := core.Params{Ring: rg, Scheme: scheme, Workers: opt.Workers, Trace: cliTr}
	sp := core.Params{Ring: rg, Scheme: scheme, Workers: opt.Workers, Trace: srvTr}
	type ready struct {
		srv *core.ServerEngine
		err error
	}
	srvReady := make(chan ready, 1)
	srvDone := make(chan error, 1)
	go func() {
		srv, err := core.NewServerEngine(cb, qm, sp, core.ReLUGC)
		if err == nil {
			err = srv.Offline(batch)
		}
		srvReady <- ready{srv, err}
		if err != nil {
			return
		}
		srvDone <- srv.Online()
	}()
	cli, err := core.NewClientEngine(ca, arch, cp, core.ReLUGC, prg.New(prg.SeedFromInt(23)))
	if err != nil {
		return measurement{}, err
	}
	if err := cli.Offline(batch); err != nil {
		return measurement{}, err
	}
	r := <-srvReady
	if r.err != nil {
		return measurement{}, r.err
	}
	meter.Reset()
	start := time.Now()
	X := prg.New(prg.SeedFromInt(24)).Mat(rg, arch.InputSize(), batch)
	if _, err := cli.Predict(X); err != nil {
		return measurement{}, err
	}
	if err := <-srvDone; err != nil {
		return measurement{}, err
	}
	return measurement{Wall: time.Since(start), Stats: meter.Snapshot()}, nil
}
