// MNIST-scale example: the paper's Figure 4 network (784-128-128-10)
// trained on the synthetic MNIST-shaped dataset, then served securely
// with batch prediction — the workload behind the paper's Tables 2, 4
// and 5. Reports float/quantized/secure accuracy and per-phase cost.
package main

import (
	"fmt"
	"log"
	"time"

	"abnn2"
)

func main() {
	log.SetFlags(0)

	fmt.Println("== training the Figure 4 network (784-128-128-10) ==")
	ds := abnn2.SyntheticDataset(2000, 42)
	train, test := ds.Split(0.9)
	model := abnn2.Fig4Network()
	start := time.Now()
	model.Train(train.Inputs, train.Labels, abnn2.TrainOptions{Epochs: 3})
	fmt.Printf("trained in %v\n", time.Since(start).Round(time.Millisecond))

	qm, err := model.Quantize("8(2,2,2,2)", 8)
	if err != nil {
		log.Fatal(err)
	}
	floatAcc := model.Accuracy(test.Inputs, test.Labels)
	qAcc := qm.Accuracy(test.Inputs, test.Labels)
	fmt.Printf("float accuracy %.1f%%, 8-bit quantized accuracy %.1f%%\n", 100*floatAcc, 100*qAcc)

	fmt.Println("\n== secure batch prediction (batch = 16) ==")
	serverConn, clientConn := abnn2.Pipe()
	spans := abnn2.NewTraceCollector() // both parties emit into one dump
	cfg := abnn2.Config{RingBits: 64, Trace: spans}
	go func() {
		if _, err := abnn2.Serve(serverConn, qm, cfg); err != nil {
			log.Printf("server: %v", err)
		}
	}()
	setupStart := time.Now()
	client, err := abnn2.Dial(clientConn, qm.Arch(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	setup := time.Since(setupStart)
	setupStats := client.Stats() // the client endpoint's count: deterministic, the server sends ahead

	batch := test.Inputs[:16]
	predStart := time.Now()
	classes, err := client.Classify(batch)
	if err != nil {
		log.Fatal(err)
	}
	pred := time.Since(predStart)
	predStats := client.Stats().Sub(setupStats)

	correct, matches := 0, 0
	for i, c := range classes {
		if c == test.Labels[i] {
			correct++
		}
		if c == qm.Predict(batch[i]) {
			matches++
		}
	}
	fmt.Printf("secure batch accuracy: %d/%d correct\n", correct, len(batch))
	fmt.Printf("secure vs plaintext quantized: %d/%d identical (must be all)\n", matches, len(batch))
	fmt.Printf("\nsetup (base OTs):        %8v  %7.2f MB\n", setup.Round(time.Millisecond),
		float64(setupStats.TotalBytes())/(1<<20))
	fmt.Printf("prediction (off+online): %8v  %7.2f MB, %d flights\n", pred.Round(time.Millisecond),
		float64(predStats.TotalBytes())/(1<<20), predStats.Flights)
	fmt.Printf("amortized per input:     %8v  %7.2f MB\n",
		(pred / time.Duration(len(batch))).Round(time.Millisecond),
		float64(predStats.TotalBytes())/(1<<20)/float64(len(batch)))
	serverConn.Close()

	fmt.Println("\n== per-phase trace (both parties, from Config.Trace) ==")
	fmt.Print(abnn2.TraceTable(spans.Spans()))
}
