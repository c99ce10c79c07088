package bench

import (
	"fmt"

	"abnn2/internal/core"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// Table5Row compares ABNN2 against QUOTIENT's published numbers.
type Table5Row struct {
	System    string
	Batch     int
	LANSec    float64
	WANSec    float64
	CommMB    float64 // -1 when unpublished
	Reference bool    // true for QUOTIENT's paper numbers
}

// quotientPublished are the numbers QUOTIENT reports for the same
// network and WAN setting (copied from the paper's Table 5; QUOTIENT's
// code is not public, so the comparison target is its published result —
// exactly what the ABNN2 authors did).
var quotientPublished = []Table5Row{
	{System: "QUOTIENT", Batch: 1, LANSec: 0.356, WANSec: 6.8, CommMB: -1, Reference: true},
	{System: "QUOTIENT", Batch: 128, LANSec: 2.24, WANSec: 8.3, CommMB: -1, Reference: true},
}

// Table5 reproduces the paper's Table 5: ABNN2 with binary weights over
// Z_2^32 on the Figure 4 network vs QUOTIENT's published ternary-network
// results, batch 1 and 128, under the 24.3 MB/s / 40 ms WAN model.
func Table5(opt Options) []Table5Row {
	batches := []int{1, 128}
	if opt.Quick {
		batches = []int{1, 8}
	}
	rg := ring.New(32)
	rows := append([]Table5Row{}, quotientPublished...)
	for _, batch := range batches {
		meas := runEndToEndModel(opt, fmt.Sprintf("table5 batch=%d", batch),
			endToEnd{ring: rg, model: syntheticQuantized(quant.Binary(), opt.shapes()), batch: batch, variant: core.ReLUGC}).whole
		rows = append(rows, Table5Row{
			System: "Our binary",
			Batch:  batch,
			LANSec: meas.timeUnder(transport.LAN),
			WANSec: meas.timeUnder(transport.WANQuotient),
			CommMB: meas.CommMB(),
		})
	}
	t := &table{header: []string{"system", "batch", "LAN(s)", "WAN(s)", "comm(MB)"}}
	for _, r := range rows {
		comm := "-"
		if r.CommMB >= 0 {
			comm = mb(r.CommMB)
		}
		name := r.System
		if r.Reference {
			name += " (published)"
		}
		t.add(name, fmt.Sprint(r.Batch), secs(r.LANSec), secs(r.WANSec), comm)
	}
	fmt.Fprintf(opt.out(), "Table 5: comparison with QUOTIENT (their published numbers), l=32\n%s\n", t)
	return rows
}
