package bench

import (
	"fmt"

	"abnn2/internal/core"
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
			row(sc.Name(), runOffline(opt, fmt.Sprintf("table3 %s d=%d", sc.Name(), d), rg, sc,
				networkJobs(core.BackendABNN2, []layerShape{{m, d}}, 1)))
		}
		// SecureML's weights are full-width; its cost is the same for any.
		row("SecureML", runOffline(opt, fmt.Sprintf("table3 SecureML d=%d", d), rg, quant.Uniform(2, 4),
			networkJobs(core.BackendSecureML, []layerShape{{m, d}}, 1)))
	}
	t := &table{header: []string{"d", "system", "LAN(s)", "WAN(s)", "comm(MB)"}}
	for _, r := range rows {
		t.add(fmt.Sprint(r.D), r.System, secs(r.LANSec), secs(r.WANSec), mb(r.CommMB))
	}
	fmt.Fprintf(opt.out(), "Table 3: offline matmul 128 x d, l=64, one-batch\n%s\n", t)
	return rows
}
