package abnn2_test

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"abnn2"
)

// Example demonstrates the minimal train → quantize → secure-classify
// flow. Both parties run in one process over an in-memory pipe; in a real
// deployment each side holds one end of a TCP connection (see
// cmd/abnn2-server and cmd/abnn2-client).
func Example() {
	// The model owner trains and quantizes.
	ds := abnn2.SyntheticDataset(400, 42)
	train, test := ds.Split(0.9)
	model := abnn2.NewMLP(784, 16, 10)
	model.Train(train.Inputs, train.Labels, abnn2.TrainOptions{Epochs: 2})
	qm, err := model.Quantize("4(2,2)", 8)
	if err != nil {
		fmt.Println("quantize:", err)
		return
	}

	// Secure inference: the server never sees inputs, the client never
	// sees weights. Seeds fixed only so the example is deterministic.
	serverConn, clientConn := abnn2.Pipe()
	go abnn2.Serve(serverConn, qm, abnn2.Config{RingBits: 64, Seed: 1})
	client, err := abnn2.Dial(clientConn, qm.Arch(), abnn2.Config{RingBits: 64, Seed: 2})
	if err != nil {
		fmt.Println("dial:", err)
		return
	}
	classes, err := client.Classify(test.Inputs[:1])
	if err != nil {
		fmt.Println("classify:", err)
		return
	}
	fmt.Println("secure == plaintext:", classes[0] == qm.Predict(test.Inputs[0]))
	// Output: secure == plaintext: true
}

// ExampleClient_ClassifyPrivate runs a small CNN (conv 5x5 -> ReLU ->
// pool 2 -> FC) and finishes with the private argmax. The convolution runs
// as OT matrix triplets, the fused ReLU and max pooling and the argmax
// inside garbled circuits; the client learns only each class index, never
// the score vector.
func ExampleClient_ClassifyPrivate() {
	ds := abnn2.SyntheticDataset(300, 7)
	train, test := ds.Split(0.9)
	model := abnn2.NewSmallCNN(4)
	model.Train(train.Inputs, train.Labels, abnn2.TrainOptions{Epochs: 2, BatchSize: 16})
	qm, err := model.Quantize("8(2,2,2,2)", 8)
	if err != nil {
		fmt.Println("quantize:", err)
		return
	}
	serverConn, clientConn := abnn2.Pipe()
	go abnn2.Serve(serverConn, qm, abnn2.Config{RingBits: 64, Seed: 3})
	client, err := abnn2.Dial(clientConn, qm.Arch(), abnn2.Config{RingBits: 64, Seed: 4})
	if err != nil {
		fmt.Println("dial:", err)
		return
	}
	inputs := test.Inputs[:4]
	classes, err := client.ClassifyPrivate(inputs)
	if err != nil {
		fmt.Println("classify:", err)
		return
	}
	matches := 0
	for i, x := range inputs {
		if classes[i] == qm.Predict(x) {
			matches++
		}
	}
	fmt.Printf("matches plaintext: %d of %d\n", matches, len(inputs))
	// Output: matches plaintext: 4 of 4
}

// ExampleChoosePlan prices the per-layer offline backends under the two
// link presets, runs a session under the WAN plan, and shows that a plan
// moves offline cost around without moving a prediction.
func ExampleChoosePlan() {
	ds := abnn2.SyntheticDataset(300, 9)
	train, test := ds.Split(0.9)
	model := abnn2.NewMLP(784, 12, 10)
	model.Train(train.Inputs, train.Labels, abnn2.TrainOptions{Epochs: 2})
	qm, err := model.Quantize("4(2,2)", 8)
	if err != nil {
		fmt.Println("quantize:", err)
		return
	}
	// The planner prices the Paillier key size it is told; 512 bits keeps
	// the MiniONN layer it picks on the thin link fast enough for an example.
	in := abnn2.PlanInput{Arch: qm.Arch(), RingBits: 32, Batch: 1, MiniONNBits: 512}
	in.Link = abnn2.PlanLAN()
	lan, _, err := abnn2.ChoosePlan(in)
	if err != nil {
		fmt.Println("plan:", err)
		return
	}
	in.Link = abnn2.PlanWAN()
	wan, _, err := abnn2.ChoosePlan(in)
	if err != nil {
		fmt.Println("plan:", err)
		return
	}
	fmt.Println("LAN plan:", lan)
	fmt.Println("WAN plan:", wan)

	classify := func(cfg abnn2.Config) int {
		serverConn, clientConn := abnn2.Pipe()
		go abnn2.Serve(serverConn, qm, abnn2.Config{RingBits: 32, Seed: 5})
		client, err := abnn2.Dial(clientConn, qm.Arch(), cfg)
		if err != nil {
			fmt.Println("dial:", err)
			return -1
		}
		defer client.Close()
		classes, err := client.Classify(test.Inputs[:1])
		if err != nil {
			fmt.Println("classify:", err)
			return -1
		}
		return classes[0]
	}
	planned := classify(abnn2.Config{RingBits: 32, Seed: 6, Plan: wan, MiniONNKeyBits: 512})
	planless := classify(abnn2.Config{RingBits: 32, Seed: 6})
	fmt.Println("planned == plan-less:", planned == planless && planned == qm.Predict(test.Inputs[0]))
	// Output:
	// LAN plan: abnn2:4(4),abnn2:4(4)
	// WAN plan: minionn,abnn2
	// planned == plan-less: true
}

// ExampleReadTraceDump records both parties of a session with
// NewTraceWriter, reads the two dumps back and merges them into the
// cross-party timeline abnn2-inspect -timeline prints.
func ExampleReadTraceDump() {
	ds := abnn2.SyntheticDataset(300, 11)
	train, test := ds.Split(0.9)
	model := abnn2.NewMLP(784, 12, 10)
	model.Train(train.Inputs, train.Labels, abnn2.TrainOptions{Epochs: 1})
	qm, err := model.Quantize("ternary", 8)
	if err != nil {
		fmt.Println("quantize:", err)
		return
	}
	// Each party writes its own dump; both tag it with the session id.
	var serverDump, clientDump bytes.Buffer
	serverConn, clientConn := abnn2.Pipe()
	served := make(chan error, 1)
	go func() {
		_, err := abnn2.Serve(serverConn, qm, abnn2.Config{RingBits: 64, Seed: 7, SessionID: 42, Trace: abnn2.NewTraceWriter(&serverDump)})
		served <- err
	}()
	client, err := abnn2.Dial(clientConn, qm.Arch(), abnn2.Config{RingBits: 64, Seed: 8, SessionID: 42, Trace: abnn2.NewTraceWriter(&clientDump)})
	if err != nil {
		fmt.Println("dial:", err)
		return
	}
	if _, err := client.Classify(test.Inputs[:1]); err != nil {
		fmt.Println("classify:", err)
		return
	}
	client.Close()
	if err := <-served; err != nil {
		fmt.Println("serve:", err)
		return
	}

	spans, flights, err := abnn2.ReadTraceDump(io.MultiReader(&clientDump, &serverDump))
	if err != nil {
		fmt.Println("read dump:", err)
		return
	}
	sessions := abnn2.TraceSessions(flights)
	fmt.Println("sessions both parties recorded:", sessions)
	tl, err := abnn2.BuildTimeline(sessions[0], spans, flights)
	if err != nil {
		fmt.Println("timeline:", err)
		return
	}
	var attributed time.Duration
	for _, d := range tl.ByClass {
		attributed += d
	}
	fmt.Println("every flight matched:", tl.Pairs*2 == len(flights))
	fmt.Println("wall time attributed:", attributed > 0 && attributed <= tl.Wall)
	// Output:
	// sessions both parties recorded: [42]
	// every flight matched: true
	// wall time attributed: true
}
