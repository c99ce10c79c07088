// WAN example: the same secure prediction costs very different wall time
// on different links. This example runs one protocol execution, records
// its exact byte/flight profile, and prices it under the paper's three
// link models (LAN, the Table 3 WAN, the QUOTIENT WAN) — the methodology
// behind every WAN column in EXPERIMENTS.md.
package main

import (
	"fmt"
	"log"
	"time"

	"abnn2"
	"abnn2/internal/core"
	"abnn2/internal/transport"
)

func main() {
	log.SetFlags(0)

	ds := abnn2.SyntheticDataset(600, 42)
	train, test := ds.Split(0.9)
	model := abnn2.NewMLP(784, 32, 10)
	model.Train(train.Inputs, train.Labels, abnn2.TrainOptions{Epochs: 2})

	for _, scheme := range []string{"binary", "8(2,2,2,2)"} {
		qm, err := model.Quantize(scheme, 8)
		if err != nil {
			log.Fatal(err)
		}
		serverConn, clientConn := abnn2.Pipe()
		go abnn2.Serve(serverConn, qm, abnn2.Config{RingBits: 32})
		client, err := abnn2.Dial(clientConn, qm.Arch(), abnn2.Config{RingBits: 32})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if _, err := client.Classify(test.Inputs[:1]); err != nil {
			log.Fatal(err)
		}
		compute := time.Since(start)
		stats := client.Stats() // the client endpoint's count: deterministic, the server sends ahead
		serverConn.Close()

		fmt.Printf("scheme %s: %0.2f MB in %d messages / %d flights, compute %v\n",
			scheme, float64(stats.TotalBytes())/(1<<20), stats.Messages, stats.Flights,
			compute.Round(time.Millisecond))
		for _, nm := range []transport.NetModel{transport.LAN, transport.WANTable3, transport.WANQuotient} {
			fmt.Printf("  %-22s transfer %8v + latency %8v -> total %8v\n",
				nm.Name,
				(nm.NetworkTime(transport.Stats{BytesAB: stats.BytesAB, BytesBA: stats.BytesBA})).Round(time.Millisecond),
				(time.Duration(stats.Flights) * (nm.RTT / 2)).Round(time.Millisecond),
				nm.TotalTime(compute, stats).Round(time.Millisecond))
		}
		fmt.Println()
	}
	fmt.Println("the latency column charges every flight RTT/2, an upper bound: the offline phase keeps")
	fmt.Printf("%d chunks in flight, so a real link pays about one round trip per %[1]d of those flight pairs.\n",
		core.OfflineWindow)
	fmt.Println("on a WAN, flights x RTT/2 dominates small batches; bytes dominate large ones —")
	fmt.Println("which is why the paper's speedups over SecureML grow from ~2-3x (LAN) to ~25-36x (WAN).")
}
