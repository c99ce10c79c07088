package bench

import (
	"context"
	"fmt"
	"time"

	"abnn2"
	"abnn2/internal/transport"
)

// The offline/online split table: the same model and batch size served
// twice — end-to-end, with the inline offline phase (OT extension +
// triplets) on the request path, and online-only, with both parties
// drawing prewarmed correlations from a bank so the request path is the
// 13-byte announcement plus the online rounds. The gap between the two
// rows is exactly what the correlation bank buys.

// TableBankRow is one measured row of the split. Values are per batch,
// averaged over the run's iterations.
type TableBankRow struct {
	Scheme  string  `json:"scheme"`
	Batch   int     `json:"batch"`
	Mode    string  `json:"mode"` // "end-to-end" or "online-only"
	WallSec float64 `json:"wall_sec"`
	CommMB  float64 `json:"comm_mb"`
	LANSec  float64 `json:"lan_sec"`
	WANSec  float64 `json:"wan_sec"`
}

// TableBank measures the offline/online split. Quick mode shrinks the
// model and batch sizes; the full configuration uses the paper's
// Figure 4 MLP shape. The quick model keeps the paper's 784-wide input
// over few neurons: triplet work grows with inputs x neurons and the
// online GC work with neurons alone, so the offline phase stays the
// larger share of a request and the split stays wider than timing noise.
func TableBank(opt Options) []TableBankRow {
	const scheme, frac = "4(2,2)", uint(6)
	sizes := []int{784, 128, 128, 10}
	batches := []int{1, 32}
	if opt.Quick {
		sizes = []int{784, 16, 10}
		batches = []int{1, 4}
	}
	const iters = 3
	qm, err := abnn2.NewMLP(sizes...).Quantize(scheme, frac)
	if err != nil {
		fmt.Fprintf(opt.out(), "bank table: quantize: %v\n", err)
		return nil
	}
	var rows []TableBankRow
	tb := &table{header: []string{"scheme", "batch", "mode", "wall(s)", "comm(MB)", "LAN(s)", "WAN(s)"}}
	for _, batch := range batches {
		for _, banked := range []bool{false, true} {
			m, err := runBankSession(qm, sizes[0], batch, iters, opt.Workers, banked)
			if err != nil {
				fmt.Fprintf(opt.out(), "bank table: batch=%d banked=%v: %v\n", batch, banked, err)
				return rows
			}
			mode := "end-to-end"
			if banked {
				mode = "online-only"
			}
			r := TableBankRow{
				Scheme:  scheme,
				Batch:   batch,
				Mode:    mode,
				WallSec: m.Wall.Seconds(),
				CommMB:  m.CommMB(),
				LANSec:  m.timeUnder(transport.LAN),
				WANSec:  m.timeUnder(transport.WANTable3),
			}
			rows = append(rows, r)
			tb.add(r.Scheme, count(int64(r.Batch)), r.Mode,
				secs(r.WallSec), mb(r.CommMB), secs(r.LANSec), secs(r.WANSec))
		}
	}
	fmt.Fprintf(opt.out(), "Offline/online split (correlation bank), per batch over %d iterations:\n%s\n", iters, tb)
	return rows
}

// runBankSession serves iters batches over one facade session and
// returns the per-batch cost of the request path — the client's wall
// time and wire traffic across its Infer calls, session setup excluded.
// With banked set, a bank is prewarmed with iters correlations first
// (off the measured path, which is the point) and then drained, so the
// pool's background refill — a whole offline phase per correlation
// drawn — does not compete with the measured requests for CPU; both
// parties run OfflineBanked so a silent inline fallback cannot flatter
// the row.
func runBankSession(qm *abnn2.QuantizedModel, inputSize, batch, iters, workers int, banked bool) (measurement, error) {
	inputs := make([][]float64, batch)
	for k := range inputs {
		x := make([]float64, inputSize)
		for i := range x {
			x[i] = float64((k*31+i*17)%23)/23 - 0.5
		}
		inputs[k] = x
	}
	scfg := abnn2.Config{RingBits: 32, Seed: 101, Workers: workers}
	ccfg := abnn2.Config{RingBits: 32, Seed: 102, Workers: workers}
	if banked {
		b := abnn2.NewBank(abnn2.BankOptions{Capacity: iters, Workers: workers, Seed: 7})
		defer b.Close()
		id, err := abnn2.RegisterBankModel(b, qm)
		if err != nil {
			return measurement{}, fmt.Errorf("register model: %w", err)
		}
		key := abnn2.BankKey{Model: id, Scheme: qm.Scheme(), RingBits: 32,
			Batch: batch, Backend: abnn2.BankSessionBackend}
		if err := b.Prewarm(key, iters); err != nil {
			return measurement{}, fmt.Errorf("prewarm: %w", err)
		}
		if err := b.Drain(context.Background()); err != nil {
			return measurement{}, fmt.Errorf("drain: %w", err)
		}
		scfg.Bank, scfg.OfflineMode = b, abnn2.OfflineBanked
		ccfg.Bank, ccfg.OfflineMode, ccfg.BankModel = b, abnn2.OfflineBanked, id
	}
	sconn, cconn := transport.Pipe()
	srvErr := make(chan error, 1)
	go func() {
		_, err := abnn2.Serve(sconn, qm, scfg)
		srvErr <- err
	}()
	client, err := abnn2.Dial(cconn, qm.Arch(), ccfg)
	if err != nil {
		cconn.Close()
		<-srvErr
		return measurement{}, fmt.Errorf("dial: %w", err)
	}
	before := client.Stats()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := client.Infer(inputs); err != nil {
			client.Close()
			<-srvErr
			return measurement{}, fmt.Errorf("infer %d: %w", i, err)
		}
	}
	wall := time.Since(start)
	after := client.Stats()
	client.Close()
	if err := <-srvErr; err != nil {
		return measurement{}, fmt.Errorf("server: %w", err)
	}
	n := int64(iters)
	return measurement{
		Wall: wall / time.Duration(iters),
		Stats: transport.Stats{
			BytesAB:  (after.BytesAB - before.BytesAB) / n,
			BytesBA:  (after.BytesBA - before.BytesBA) / n,
			Messages: (after.Messages - before.Messages) / n,
			Flights:  (after.Flights - before.Flights) / n,
		},
	}, nil
}
