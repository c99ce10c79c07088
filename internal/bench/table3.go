package bench

import (
	"fmt"

	"abnn2/internal/baseline"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// Table3Row records one offline matrix-multiplication microbenchmark:
// a 128 x d quantized matrix times a d-vector, l = 64.
type Table3Row struct {
	System string // "binary", "ternary", "8(2,2,2,2)", "SecureML"
	D      int
	LANSec float64
	WANSec float64 // 9 MB/s, 72 ms RTT (the Table 3 setting)
	CommMB float64
}

// Table3 reproduces the paper's Table 3: ABNN2's one-batch offline
// matrix multiplication vs the SecureML OT baseline across d in
// {100, 500, 1000}, reported under LAN and the 9MB/s-72ms WAN model.
func Table3(opt Options) []Table3Row {
	ds := []int{100, 500, 1000}
	if opt.Quick {
		ds = []int{100}
	}
	const m = 128
	rg := ring.New(64)
	schemes := []quant.Scheme{quant.Binary(), quant.Ternary(), quant.Uniform(2, 4)}
	var rows []Table3Row
	for _, d := range ds {
		row := func(system string, meas measurement) {
			rows = append(rows, Table3Row{
				System: system,
				D:      d,
				LANSec: meas.timeUnder(transport.LAN),
				WANSec: meas.timeUnder(transport.WANTable3),
				CommMB: meas.CommMB(),
			})
		}
		for _, sc := range schemes {
			row(sc.Name(), runOffline(opt, fmt.Sprintf("table3 %s d=%d", sc.Name(), d), rg, sc, networkJobs([]layerShape{{m, d}}, 1)))
		}
		row("SecureML", runSecureML(opt, rg, m, d))
	}
	t := &table{header: []string{"d", "system", "LAN(s)", "WAN(s)", "comm(MB)"}}
	for _, r := range rows {
		t.add(fmt.Sprint(r.D), r.System, secs(r.LANSec), secs(r.WANSec), mb(r.CommMB))
	}
	fmt.Fprintf(opt.out(), "Table 3: offline matmul 128 x d, l=64, one-batch\n%s\n", t)
	return rows
}

// runSecureML measures the SecureML baseline triplet generation for an
// m x d full-width matrix times a d-vector.
func runSecureML(opt Options, rg ring.Ring, m, d int) measurement {
	return mustRun(opt, fmt.Sprintf("table3 SecureML d=%d", d),
		offlinePhase(func(s side) error {
			rng := prg.New(prg.SeedFromInt(3))
			cl, err := baseline.NewSecureMLClient(s.conn, rg, 1, rng)
			if err != nil {
				return err
			}
			_, err = cl.GenerateClient(m, rng.Mat(rg, d, 1))
			return err
		}),
		offlinePhase(func(s side) error {
			rng := prg.New(prg.SeedFromInt(4))
			sv, err := baseline.NewSecureMLServer(s.conn, rg, 1, rng)
			if err != nil {
				return err
			}
			W := make([]int64, m*d)
			for i := range W {
				W[i] = int64(rng.Uint64()) // full-width weights
			}
			_, err = sv.GenerateServer(W, m, d, 1)
			return err
		}),
	)
}
