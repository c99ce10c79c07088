package bench

import (
	"fmt"
	"time"

	"abnn2/internal/baseline"
	"abnn2/internal/core"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// Ablation studies for the design choices DESIGN.md calls out. Each
// returns structured rows and prints a table.

// AblationRow is a generic labelled measurement.
type AblationRow struct {
	Label   string
	WallSec float64
	WANSec  float64
	CommMB  float64
}

// AblationOneBatch compares the section 4.1.3 correlated-OT packaging
// (N-1 ciphertexts) against the naive Fig. 3 protocol (N ciphertexts)
// for single-prediction offline matmul.
func AblationOneBatch(opt Options) []AblationRow {
	m, n := 128, 512
	if opt.Quick {
		n = 64
	}
	rg := ring.New(32)
	scheme := quant.Uniform(2, 4)
	rows := []AblationRow{}
	// Fig. 3 is section 4.1.2 at o = 1: the naive row is MultiBatch there.
	for _, row := range []struct {
		label string
		mode  core.Mode
	}{{"naive-N", core.MultiBatch}, {core.OneBatch.String(), core.OneBatch}} {
		meas, err := runOfflineMode(rg, scheme, layerShape{m, n}, 1, row.mode, opt.Workers)
		if err != nil {
			panic(fmt.Sprintf("bench: one-batch ablation %s: %v", row.label, err))
		}
		rows = append(rows, AblationRow{
			Label:   row.label,
			WallSec: meas.Wall.Seconds(),
			WANSec:  meas.timeUnder(transport.WANTable3),
			CommMB:  meas.CommMB(),
		})
	}
	printAblation(opt, "Ablation: one-batch C-OT vs naive 1-of-N (128x"+fmt.Sprint(n)+", 8(2,2,2,2), l=32)", rows)
	return rows
}

// AblationMultiBatch compares the section 4.1.2 OT-reuse scheme against
// running the one-batch protocol once per column, for a batch of o
// predictions.
func AblationMultiBatch(opt Options) []AblationRow {
	m, n, o := 128, 256, 16
	if opt.Quick {
		n, o = 64, 4
	}
	rg := ring.New(32)
	scheme := quant.Uniform(2, 4)
	rows := []AblationRow{}

	multi, err := runOfflineMode(rg, scheme, layerShape{m, n}, o, core.MultiBatch, opt.Workers)
	if err != nil {
		panic(fmt.Sprintf("bench: multi-batch ablation: %v", err))
	}
	rows = append(rows, AblationRow{
		Label:   fmt.Sprintf("multi-batch (1 OT reused for %d columns)", o),
		WallSec: multi.Wall.Seconds(),
		WANSec:  multi.timeUnder(transport.WANTable3),
		CommMB:  multi.CommMB(),
	})

	// Naive: o independent one-batch runs on one session.
	var naive measurement
	start := time.Now()
	meas, err := runRepeatedOneBatch(rg, scheme, layerShape{m, n}, o, opt.Workers)
	if err != nil {
		panic(fmt.Sprintf("bench: repeated one-batch: %v", err))
	}
	naive = meas
	naive.Wall = time.Since(start)
	rows = append(rows, AblationRow{
		Label:   fmt.Sprintf("repeated one-batch (%d separate runs)", o),
		WallSec: naive.Wall.Seconds(),
		WANSec:  naive.timeUnder(transport.WANTable3),
		CommMB:  naive.CommMB(),
	})
	printAblation(opt, "Ablation: multi-batch OT reuse vs per-column OTs", rows)
	return rows
}

// AblationReLU compares the Algorithm-2 GC ReLU against the section 4.2
// optimised (sign-leaking) protocol on the Figure 4 network.
func AblationReLU(opt Options) []AblationRow {
	shapes := fig4Shapes
	batch := 8
	if opt.Quick {
		shapes = []layerShape{{32, 96}, {32, 32}, {10, 32}}
		batch = 2
	}
	rg := ring.New(32)
	rows := []AblationRow{}
	for _, v := range []core.ReLUVariant{core.ReLUGC, core.ReLUOptimized} {
		meas, err := runEndToEnd(rg, quant.Uniform(2, 4), shapes, batch, v, opt, "ablation-relu "+v.String())
		if err != nil {
			panic(fmt.Sprintf("bench: relu ablation %v: %v", v, err))
		}
		rows = append(rows, AblationRow{
			Label:   "ReLU " + v.String(),
			WallSec: meas.Wall.Seconds(),
			WANSec:  meas.timeUnder(transport.WANQuotient),
			CommMB:  meas.CommMB(),
		})
	}
	printAblation(opt, fmt.Sprintf("Ablation: Algorithm-2 ReLU vs optimized sign-bit ReLU (batch %d)", batch), rows)
	return rows
}

// AblationFragmentN sweeps the fragment size for 8-bit weights,
// validating the paper's claim that 2-bit fragments (N = 4) are the sweet
// spot and N = 16 is the practical maximum.
func AblationFragmentN(opt Options) []AblationRow {
	m, n := 128, 512
	if opt.Quick {
		n = 64
	}
	rg := ring.New(32)
	schemes := []quant.Scheme{
		quant.OneBit(8, true),          // N=2,  gamma=8
		quant.Uniform(2, 4),            // N=4,  gamma=4
		quant.NewBitScheme(true, 4, 4), // N=16, gamma=2
		quant.NewBitScheme(true, 8),    // N=256, gamma=1
	}
	rows := []AblationRow{}
	for _, sc := range schemes {
		meas, err := runOfflineMode(rg, sc, layerShape{m, n}, 1, core.OneBatch, opt.Workers)
		if err != nil {
			panic(fmt.Sprintf("bench: fragment ablation %s: %v", sc.Name(), err))
		}
		rows = append(rows, AblationRow{
			Label:   sc.Name(),
			WallSec: meas.Wall.Seconds(),
			WANSec:  meas.timeUnder(transport.WANTable3),
			CommMB:  meas.CommMB(),
		})
	}
	printAblation(opt, "Ablation: fragment size sweep for 8-bit weights (one-batch)", rows)
	return rows
}

// AblationXONN compares the two binary-network design points: ABNN2 with
// binary weights (OT-based linear layers, full-precision activations)
// vs an XONN-style fully binarized network evaluated entirely inside one
// garbled circuit (weights AND activations binary). Same topology.
func AblationXONN(opt Options) []AblationRow {
	sizes := []int{784, 128, 10}
	if opt.Quick {
		sizes = []int{96, 32, 10}
	}
	rows := []AblationRow{}

	// ABNN2, binary weights, batch 1, l=32.
	shapes := []layerShape{{sizes[1], sizes[0]}, {sizes[2], sizes[1]}}
	meas, err := runEndToEnd(ring.New(32), quant.Binary(), shapes, 1, core.ReLUGC, opt, "ablation-xonn")
	if err != nil {
		panic(fmt.Sprintf("bench: xonn ablation abnn2: %v", err))
	}
	rows = append(rows, AblationRow{
		Label:   "ABNN2 binary weights (OT linear + GC ReLU)",
		WallSec: meas.Wall.Seconds(),
		WANSec:  meas.timeUnder(transport.WANQuotient),
		CommMB:  meas.CommMB(),
	})

	// XONN-style fully binary network, one GC for everything.
	bnn := baseline.NewBNN(prg.New(prg.SeedFromInt(41)), sizes...)
	input := make([]byte, sizes[0])
	xm, err := runPair(
		func(conn transport.Conn) error {
			_, err := baseline.XONNQuery(conn, bnn, input, 3, prg.New(prg.SeedFromInt(42)))
			return err
		},
		func(conn transport.Conn) error {
			return baseline.XONNServe(conn, bnn, 3, prg.New(prg.SeedFromInt(43)))
		},
	)
	if err != nil {
		panic(fmt.Sprintf("bench: xonn ablation xonn: %v", err))
	}
	rows = append(rows, AblationRow{
		Label:   "XONN-style fully binary (single GC)",
		WallSec: xm.Wall.Seconds(),
		WANSec:  xm.timeUnder(transport.WANQuotient),
		CommMB:  xm.CommMB(),
	})
	printAblation(opt, "Ablation: binary-weight ABNN2 vs XONN-style binary network (batch 1)", rows)
	return rows
}

// AblationRing compares end-to-end cost on Z_2^64 (no rescaling, the
// always-safe configuration) against Z_2^32 with requantization (the
// truncation extension): halving l roughly halves every payload.
func AblationRing(opt Options) []AblationRow {
	shapes := fig4Shapes
	batch := 8
	if opt.Quick {
		shapes = []layerShape{{32, 96}, {32, 32}, {10, 32}}
		batch = 2
	}
	scheme := quant.Uniform(2, 4)
	rows := []AblationRow{}
	for _, cfg := range []struct {
		label   string
		bits    uint
		requant bool
	}{
		{"l=64, no rescale", 64, false},
		{"l=32 + requantization", 32, true},
	} {
		qm := syntheticQuantized(scheme, shapes)
		if cfg.requant {
			for _, l := range qm.Layers {
				l.ReqC, l.ReqT = 13, 12 // ~Scale=1 rescale; cost-equivalent
			}
		}
		meas, err := runEndToEndModel(ring.New(cfg.bits), qm, batch, core.ReLUGC, nil, 0, opt, "ablation-ring "+cfg.label)
		if err != nil {
			panic(fmt.Sprintf("bench: ring ablation %s: %v", cfg.label, err))
		}
		rows = append(rows, AblationRow{
			Label:   cfg.label,
			WallSec: meas.Wall.Seconds(),
			WANSec:  meas.timeUnder(transport.WANQuotient),
			CommMB:  meas.CommMB(),
		})
	}
	printAblation(opt, fmt.Sprintf("Ablation: ring width (batch %d; l=32 needs the requantization extension)", batch), rows)
	return rows
}

func printAblation(opt Options, title string, rows []AblationRow) {
	t := &table{header: []string{"variant", "wall(s)", "WAN(s)", "comm(MB)"}}
	for _, r := range rows {
		t.add(r.Label, secs(r.WallSec), secs(r.WANSec), mb(r.CommMB))
	}
	fmt.Fprintf(opt.out(), "%s\n%s\n", title, t)
}

// runOfflineMode is runOfflineNetwork for a single layer with an explicit
// packaging mode.
func runOfflineMode(rg ring.Ring, scheme quant.Scheme, sh layerShape, o int, mode core.Mode, workers int) (measurement, error) {
	p := core.Params{Ring: rg, Scheme: scheme, Workers: workers}
	return runPair(
		func(conn transport.Conn) error {
			rng := prg.New(prg.SeedFromInt(31))
			ct, err := core.NewClientTriplets(conn, p, 1, rng)
			if err != nil {
				return err
			}
			R := rng.Mat(rg, sh.N, o)
			_, err = ct.GenerateClient(core.MatShape{M: sh.M, N: sh.N, O: o}, R, mode)
			return err
		},
		func(conn transport.Conn) error {
			st, err := core.NewServerTriplets(conn, p, 1)
			if err != nil {
				return err
			}
			rng := prg.New(prg.SeedFromInt(32))
			min, max := scheme.Range()
			span := int(max - min + 1)
			W := make([]int64, sh.M*sh.N)
			for i := range W {
				W[i] = min + int64(rng.Intn(span))
			}
			_, err = st.GenerateServer(core.MatShape{M: sh.M, N: sh.N, O: o}, W, mode)
			return err
		},
	)
}

// runRepeatedOneBatch runs o sequential one-batch generations over a
// single session pair (the strawman the multi-batch scheme replaces).
func runRepeatedOneBatch(rg ring.Ring, scheme quant.Scheme, sh layerShape, o int, workers int) (measurement, error) {
	p := core.Params{Ring: rg, Scheme: scheme, Workers: workers}
	return runPair(
		func(conn transport.Conn) error {
			rng := prg.New(prg.SeedFromInt(33))
			ct, err := core.NewClientTriplets(conn, p, 1, rng)
			if err != nil {
				return err
			}
			for k := 0; k < o; k++ {
				R := rng.Mat(rg, sh.N, 1)
				if _, err := ct.GenerateClient(core.MatShape{M: sh.M, N: sh.N, O: 1}, R, core.OneBatch); err != nil {
					return err
				}
			}
			return nil
		},
		func(conn transport.Conn) error {
			st, err := core.NewServerTriplets(conn, p, 1)
			if err != nil {
				return err
			}
			rng := prg.New(prg.SeedFromInt(34))
			min, max := scheme.Range()
			span := int(max - min + 1)
			W := make([]int64, sh.M*sh.N)
			for i := range W {
				W[i] = min + int64(rng.Intn(span))
			}
			for k := 0; k < o; k++ {
				if _, err := st.GenerateServer(core.MatShape{M: sh.M, N: sh.N, O: 1}, W, core.OneBatch); err != nil {
					return err
				}
			}
			return nil
		},
	)
}
