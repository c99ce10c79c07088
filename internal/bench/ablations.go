package bench

import (
	"fmt"
	"math"

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

// ablationRow prices one measurement under the ablation's WAN model.
func ablationRow(label string, m measurement, wan transport.NetModel) AblationRow {
	return AblationRow{Label: label, WallSec: m.Wall.Seconds(), WANSec: m.timeUnder(wan), CommMB: m.CommMB()}
}

// AblationOneBatch compares the section 4.1.3 correlated-OT packaging
// (N-1 ciphertexts) against the naive Fig. 3 protocol (N ciphertexts)
// for single-prediction offline matmul. No encoder sends Fig. 3's N any
// more, so the naive row is priced from core's formula, one more l-bit
// ciphertext per OT, and has no times.
func AblationOneBatch(opt Options) []AblationRow {
	m, n := 128, 512
	if opt.Quick {
		n = 64
	}
	rg := ring.New(32)
	scheme := quant.Uniform(2, 4)
	sh := core.MatShape{M: m, N: n, O: 1}
	naive := core.OfflineComplexity(32, scheme, sh)
	naive.CommBits += float64(naive.NumOTs) * 32
	rows := []AblationRow{
		{Label: "naive-N", WallSec: math.NaN(), WANSec: math.NaN(), CommMB: naive.CommMB()},
		ablationRow("one-batch", runOffline(opt, "ablation-onebatch one-batch", rg, scheme, []offlineJob{{shape: sh}}), transport.WANTable3),
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

	// The strawman is o independent one-batch runs on one session.
	repeated := make([]offlineJob, o)
	for k := range repeated {
		repeated[k] = offlineJob{shape: core.MatShape{M: m, N: n, O: 1}}
	}
	for _, row := range []struct {
		label string
		jobs  []offlineJob
	}{
		{fmt.Sprintf("multi-batch (1 OT reused for %d columns)", o), []offlineJob{{shape: core.MatShape{M: m, N: n, O: o}}}},
		{fmt.Sprintf("repeated one-batch (%d separate runs)", o), repeated},
	} {
		meas := runOffline(opt, "ablation-multibatch "+row.label, rg, scheme, row.jobs)
		rows = append(rows, ablationRow(row.label, meas, transport.WANTable3))
	}
	printAblation(opt, "Ablation: multi-batch OT reuse vs per-column OTs", rows)
	return rows
}

// AblationReLU compares the Algorithm-2 GC ReLU against the section 4.2
// optimised (sign-leaking) protocol on the Figure 4 network.
func AblationReLU(opt Options) []AblationRow {
	batch := 8
	if opt.Quick {
		batch = 2
	}
	rg := ring.New(32)
	rows := []AblationRow{}
	for _, v := range []core.ReLUVariant{core.ReLUGC, core.ReLUOptimized} {
		meas := runEndToEndModel(opt, "ablation-relu "+v.String(),
			endToEnd{ring: rg, model: syntheticQuantized(quant.Uniform(2, 4), opt.shapes()), batch: batch, variant: v}).whole
		rows = append(rows, ablationRow("ReLU "+v.String(), meas, transport.WANQuotient))
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
		meas := runOffline(opt, "ablation-fragment "+sc.Name(), rg, sc, []offlineJob{{shape: core.MatShape{M: m, N: n, O: 1}}})
		rows = append(rows, ablationRow(sc.Name(), meas, transport.WANTable3))
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
	meas := runEndToEndModel(opt, "ablation-xonn abnn2",
		endToEnd{ring: ring.New(32), model: syntheticQuantized(quant.Binary(), shapes), batch: 1, variant: core.ReLUGC}).whole
	rows = append(rows, ablationRow("ABNN2 binary weights (OT linear + GC ReLU)", meas, transport.WANQuotient))

	// XONN-style fully binary network, one GC for everything.
	bnn := baseline.NewBNN(prg.New(prg.SeedFromInt(41)), sizes...)
	input := make([]byte, sizes[0])
	xm := mustRun(opt, "ablation-xonn single-gc",
		func(s side) error {
			_, err := baseline.XONNQuery(s.conn, bnn, input, 3, prg.New(prg.SeedFromInt(42)))
			return err
		},
		func(s side) error {
			return baseline.XONNServe(s.conn, bnn, 3, prg.New(prg.SeedFromInt(43)))
		},
	)
	rows = append(rows, ablationRow("XONN-style fully binary (single GC)", xm, transport.WANQuotient))
	printAblation(opt, "Ablation: binary-weight ABNN2 vs XONN-style binary network (batch 1)", rows)
	return rows
}

// AblationRing compares end-to-end cost on Z_2^64 (no rescaling, the
// always-safe configuration) against Z_2^32 with requantization (the
// truncation extension): halving l roughly halves every payload.
func AblationRing(opt Options) []AblationRow {
	batch := 8
	if opt.Quick {
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
		qm := syntheticQuantized(scheme, opt.shapes())
		if cfg.requant {
			for _, l := range qm.Layers {
				l.ReqC, l.ReqT = 13, 12 // ~Scale=1 rescale; cost-equivalent
			}
		}
		meas := runEndToEndModel(opt, "ablation-ring "+cfg.label,
			endToEnd{ring: ring.New(cfg.bits), model: qm, batch: batch, variant: core.ReLUGC}).whole
		rows = append(rows, ablationRow(cfg.label, meas, transport.WANQuotient))
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
