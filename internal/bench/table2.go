package bench

import (
	"fmt"

	"abnn2/internal/core"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// Table2Row records the offline triplet-generation cost for the 3-layer
// network under one fragmentation scheme and batch size.
type Table2Row struct {
	Eta    string // weight bitwidth group ("8", "6", ... or "-")
	Scheme string // fragmentation designation
	Batch  int
	LANSec float64 // compute + LAN-model time
	CommMB float64
}

// table2Schemes mirrors the paper's row set: every fragmentation of
// eta in {8,6,4,3}, plus ternary and binary.
var table2Schemes = []struct {
	eta    string
	scheme quant.Scheme
}{
	{"8", quant.OneBit(8, true)},
	{"8", quant.Uniform(2, 4)},
	{"8", quant.NewBitScheme(true, 3, 3, 2)},
	{"8", quant.NewBitScheme(true, 4, 4)},
	{"6", quant.OneBit(6, true)},
	{"6", quant.NewBitScheme(true, 2, 2, 2)},
	{"6", quant.NewBitScheme(true, 3, 3)},
	{"4", quant.OneBit(4, true)},
	{"4", quant.NewBitScheme(true, 2, 2)},
	{"4", quant.NewBitScheme(true, 4)},
	{"3", quant.OneBit(3, true)},
	{"3", quant.NewBitScheme(true, 2, 1)},
	{"3", quant.NewBitScheme(true, 3)},
	{"-", quant.Ternary()},
	{"-", quant.Binary()},
}

// Table2 reproduces the paper's Table 2: offline dot-product triplet
// generation for the Figure 4 network over Z_2^32 in the LAN setting,
// for every fragmentation scheme and batch size.
func Table2(opt Options) []Table2Row {
	batches := []int{1, 32, 64, 128}
	if opt.Quick {
		batches = []int{1, 8}
	}
	rg := ring.New(32)
	var rows []Table2Row
	for _, sc := range table2Schemes {
		for _, batch := range batches {
			m := runOffline(opt, fmt.Sprintf("table2 %s batch=%d", sc.scheme.Name(), batch), rg, sc.scheme, networkJobs(core.BackendABNN2, opt.shapes(), batch))
			rows = append(rows, Table2Row{
				Eta:    sc.eta,
				Scheme: sc.scheme.Name(),
				Batch:  batch,
				LANSec: m.timeUnder(transport.LAN),
				CommMB: m.CommMB(),
			})
		}
	}
	t := &table{header: []string{"eta", "scheme", "batch", "LAN(s)", "comm(MB)"}}
	for _, r := range rows {
		t.add(r.Eta, r.Scheme, fmt.Sprint(r.Batch), secs(r.LANSec), mb(r.CommMB))
	}
	fmt.Fprintf(opt.out(), "Table 2: offline triplet generation, Fig.4 network, l=32, LAN\n%s\n", t)
	return rows
}

// offlineJob is one matrix product's worth of triplets on backend (ABNN2
// is the zero value).
type offlineJob struct {
	shape   core.MatShape
	backend core.BackendID
}

// networkJobs is one job per layer of a network at the given batch size on
// backend b.
func networkJobs(b core.BackendID, shapes []layerShape, batch int) []offlineJob {
	jobs := make([]offlineJob, len(shapes))
	for i, sh := range shapes {
		jobs[i] = offlineJob{core.MatShape{M: sh.M, N: sh.N, O: batch}, b}
	}
	return jobs
}

// runOffline is the one offline driver: it generates the triplets of
// every job, in order, on one session set-up, and measures the lot — the
// scheme's base OTs when the jobs run ABNN2; when they run a baseline, the
// set-up it runs at its first job and no ABNN2 column (core.Open*Triplets).
// Weights are drawn from scheme's range on every backend: the tables
// measure cost, which does not depend on their values.
func runOffline(opt Options, label string, rg ring.Ring, scheme quant.Scheme, jobs []offlineJob) measurement {
	newClient, newServer := core.NewClientTriplets, core.NewServerTripletsSeeded
	if jobs[0].backend != core.BackendABNN2 {
		newClient, newServer = core.OpenClientTriplets, core.OpenServerTriplets
	}
	return mustRun(opt, label,
		offlinePhase(func(s side) error {
			rng := prg.New(prg.SeedFromInt(1))
			p := core.Params{Ring: rg, Scheme: scheme, Workers: opt.Workers, Trace: s.trace}
			ct, err := newClient(s.conn, p, 1, rng)
			if err != nil {
				return err
			}
			for _, j := range jobs {
				R := rng.Mat(rg, j.shape.N, j.shape.O)
				if j.backend == core.BackendABNN2 {
					_, err = ct.GenerateClient(j.shape, R, core.MultiBatch)
				} else {
					_, err = ct.GenerateBaseline(j.backend, j.shape, R)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}),
		offlinePhase(func(s side) error {
			p := core.Params{Ring: rg, Scheme: scheme, Workers: opt.Workers, Trace: s.trace}
			st, err := newServer(s.conn, p, 1, prg.New(prg.NewSeed()))
			if err != nil {
				return err
			}
			wrng := prg.New(prg.SeedFromInt(2))
			for _, j := range jobs {
				W := randWeights(wrng, scheme, j.shape.M*j.shape.N)
				if j.backend == core.BackendABNN2 {
					_, err = st.GenerateServer(j.shape, W, core.MultiBatch)
				} else {
					_, err = st.GenerateBaseline(j.backend, j.shape, W)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}),
	)
}
