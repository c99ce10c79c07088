package bench

import (
	"fmt"
	"time"

	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
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
	minionnCap := 8
	rings := []uint{32, 64}
	if opt.Quick {
		batches = []int{1, 8}
		minionnCap = 2
		rings = []uint{32}
	}
	var rows []Table4Row
	row := func(system string, l uint, batch int, meas measurement, note string) {
		rows = append(rows, Table4Row{
			System: system,
			L:      l,
			Batch:  batch,
			LANSec: meas.timeUnder(transport.LAN),
			WANSec: meas.timeUnder(transport.WANQuotient),
			CommMB: meas.CommMB(),
			Note:   note,
		})
	}
	for _, l := range rings {
		rg := ring.New(l)
		for _, sc := range table4Schemes {
			for _, batch := range batches {
				row("Our "+sc.Name(), l, batch, runEndToEndModel(opt, fmt.Sprintf("table4 %s l=%d batch=%d", sc.Name(), l, batch),
					endToEnd{ring: rg, model: syntheticQuantized(sc, opt.shapes()), batch: batch, variant: core.ReLUGC}).whole, "")
			}
		}
		for _, batch := range batches {
			meas, note := measureMiniONN(rg, opt.shapes(), batch, minionnCap, opt)
			row("MiniONN", l, batch, meas, note)
		}
	}
	t := &table{header: []string{"system", "l", "batch", "LAN(s)", "WAN(s)", "comm(MB)", "note"}}
	for _, r := range rows {
		t.add(r.System, fmt.Sprint(r.L), fmt.Sprint(r.Batch), secs(r.LANSec), secs(r.WANSec), mb(r.CommMB), r.Note)
	}
	fmt.Fprintf(opt.out(), "Table 4: end-to-end prediction, Fig.4 network, vs MiniONN\n%s\n", t)
	return rows
}

// endToEnd is one secure inference to measure: a quantized model run
// offline then online between a client and a server engine.
type endToEnd struct {
	ring    ring.Ring
	model   *nn.QuantizedModel
	batch   int       // classify this many seeded random inputs ...
	inputs  *ring.Mat // ... or, when non-nil, this batch (one column each)
	variant core.ReLUVariant
	sched   core.Schedule // per-layer backends; nil = all ABNN2
	keyBits int           // Paillier key of any MiniONN layer in sched; 0 = the baseline's default
}

// phases is what runEndToEndModel measured: the whole run (set-up,
// offline, online), the client's offline phase alone — the part of a
// session a plan moves — the online phase alone, and the client's output.
type phases struct {
	whole   measurement
	offline transport.Stats
	online  measurement
	out     *ring.Mat
}

// runEndToEndModel is the one end-to-end driver. The phase split is the
// difference of snapshots of the client's meter, taken around the client's
// offline phase: the meter is never reset, so the whole-run flight count —
// what the WAN columns price — is the same number whether or not anyone
// reads the split. With opt.Trace set, both parties emit per-phase spans
// labelled with the row identity.
func runEndToEndModel(opt Options, label string, r endToEnd) phases {
	scheme := r.model.Layers[0].Scheme
	arch := core.ArchOf(r.model)
	X := r.inputs
	if X == nil {
		X = prg.New(prg.SeedFromInt(12)).Mat(r.ring, arch.InputSize(), r.batch)
	}
	var (
		ph                       phases
		afterSetup, afterOffline transport.Stats // the client meter's running totals
		offlineDone              time.Time
	)
	ph.whole = mustRun(opt, label,
		func(s side) error {
			p := core.Params{Ring: r.ring, Scheme: scheme, Workers: opt.Workers, Trace: s.trace, MiniONNBits: r.keyBits}
			cli, err := core.NewClientEngine(s.conn, arch, p, r.variant, prg.New(prg.SeedFromInt(11)))
			if err != nil {
				return err
			}
			if err := cli.SetSchedule(r.sched); err != nil {
				return err
			}
			afterSetup = s.meter.Snapshot()
			if err := cli.Offline(X.Cols); err != nil {
				return err
			}
			afterOffline, offlineDone = s.meter.Snapshot(), time.Now()
			ph.out, err = cli.Predict(X)
			return err
		},
		func(s side) error {
			p := core.Params{Ring: r.ring, Scheme: scheme, Workers: opt.Workers, Trace: s.trace}
			srv, err := core.NewServerEngine(s.conn, r.model, p, r.variant)
			if err != nil {
				return err
			}
			if err := srv.SetSchedule(r.sched); err != nil {
				return err
			}
			if err := srv.Offline(X.Cols); err != nil {
				return err
			}
			return srv.Online()
		},
	)
	ph.offline = afterOffline.Sub(afterSetup)
	ph.online = measurement{Wall: time.Since(offlineDone), Stats: ph.whole.Stats.Sub(afterOffline)}
	return ph
}

// syntheticQuantized builds a quantized model with random in-range
// weights for the given shapes.
func syntheticQuantized(scheme quant.Scheme, shapes []layerShape) *nn.QuantizedModel {
	rng := prg.New(prg.SeedFromInt(13))
	qm := &nn.QuantizedModel{Frac: 8}
	for li, sh := range shapes {
		qm.Layers = append(qm.Layers, &nn.QuantizedLayer{
			Shape:  nn.Shape{In: sh.N, Out: sh.M, ReLU: li+1 < len(shapes)},
			W:      randWeights(rng, scheme, sh.M*sh.N),
			B:      make([]int64, sh.M),
			Scale:  1,
			Scheme: scheme,
		})
	}
	return qm
}

// measureMiniONN measures the MiniONN baseline: HE offline phase plus the
// same online phase ABNN2 uses (MiniONN's online is likewise additive
// shares + GC activations). Batches beyond cap are extrapolated, which
// the returned note says.
func measureMiniONN(rg ring.Ring, shapes []layerShape, batch, maxBatch int, opt Options) (total measurement, note string) {
	measured := batch
	if batch > maxBatch {
		measured = maxBatch
		note = fmt.Sprintf("extrapolated from batch %d", maxBatch)
	}
	// HE triplets for every layer, under the default key.
	offline := func(batch int) measurement {
		return runOffline(opt, fmt.Sprintf("table4 MiniONN l=%d batch=%d offline", rg.Bits(), batch), rg, quant.Uniform(2, 4),
			networkJobs(core.BackendMiniONN, shapes, batch))
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
	label := fmt.Sprintf("table4 MiniONN l=%d batch=%d online", rg.Bits(), batch)
	online := runEndToEndModel(opt, label, endToEnd{ring: rg, model: syntheticQuantized(quant.Binary(), shapes), batch: batch, variant: core.ReLUGC}).online
	// An ABNN2 session's offline phase ends on a client send, so its first
	// online message (the client's masked input) opens no flight. MiniONN's
	// offline phase ends on the server's response: behind it, it does.
	online.Stats.Flights++
	record(label+" phase", online.Stats)
	return measurement{Wall: est.Wall + online.Wall, Stats: est.Stats.Add(online.Stats)}, note
}
