package abnn2

import (
	"sync"
	"testing"

	"abnn2/internal/transport"
)

// runSecureWorkers runs one full Serve/Dial inference over a pipe at the
// given worker count and returns the classifications plus the exact wire
// traffic as the client endpoint counts it: the server sends ahead in the
// offline phase, so a meter shared by both ends would count flights in a
// scheduling-dependent order (see transport.Stats).
func runSecureWorkers(t *testing.T, qm *QuantizedModel, inputs [][]float64, workers int) ([]int, transport.Stats) {
	t.Helper()
	sc, cc := Pipe()
	defer sc.Close()
	var (
		wg     sync.WaitGroup
		srvErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = Serve(sc, qm, Config{RingBits: 64, Seed: 1, Workers: workers})
	}()
	client, err := Dial(cc, qm.Arch(), Config{RingBits: 64, Seed: 2, Workers: workers})
	if err != nil {
		t.Fatalf("dial (workers=%d): %v", workers, err)
	}
	got, err := client.Classify(inputs)
	if err != nil {
		t.Fatalf("classify (workers=%d): %v", workers, err)
	}
	sc.Close()
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server (workers=%d): %v", workers, srvErr)
	}
	return got, client.Stats()
}

// TestWorkersProduceIdenticalResults is the concurrency tier's anchor:
// a full secure inference with Workers: 1 and Workers: 8 must classify
// identically and, with Seed set, put exactly the same number of bytes
// and flights on the wire in each direction. Run under -race this also
// proves the parallel kernels share no unsynchronized state.
func TestWorkersProduceIdenticalResults(t *testing.T) {
	qm, test := trainSmall(t, "8(2,2,2,2)")
	inputs := test.Inputs[:3]

	seq, seqStats := runSecureWorkers(t, qm, inputs, 1)
	par, parStats := runSecureWorkers(t, qm, inputs, 8)

	for k := range inputs {
		if seq[k] != par[k] {
			t.Errorf("input %d: workers=1 class %d, workers=8 class %d", k, seq[k], par[k])
		}
		if want := qm.Predict(inputs[k]); seq[k] != want {
			t.Errorf("input %d: secure class %d, plaintext %d", k, seq[k], want)
		}
	}
	if seqStats != parStats {
		t.Errorf("wire traffic differs across worker counts:\n workers=1: %+v\n workers=8: %+v", seqStats, parStats)
	}
}

// TestWorkersMultiBatchAndOptimizedReLU covers the remaining kernel
// paths under both worker counts: the multi-batch triplet mode (batch
// size > 1) and the sign-bit ReLU reshare rounds.
func TestWorkersMultiBatchAndOptimizedReLU(t *testing.T) {
	qm, test := trainSmall(t, "ternary")
	inputs := test.Inputs[:4]

	run := func(workers int) ([]int, transport.Stats) {
		sc, cc := Pipe()
		defer sc.Close()
		var (
			wg     sync.WaitGroup
			srvErr error
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, srvErr = Serve(sc, qm, Config{RingBits: 32, OptimizedReLU: true, Seed: 3, Workers: workers})
		}()
		client, err := Dial(cc, qm.Arch(), Config{RingBits: 32, OptimizedReLU: true, Seed: 4, Workers: workers})
		if err != nil {
			t.Fatalf("dial (workers=%d): %v", workers, err)
		}
		got, err := client.Classify(inputs)
		if err != nil {
			t.Fatalf("classify (workers=%d): %v", workers, err)
		}
		sc.Close()
		wg.Wait()
		if srvErr != nil {
			t.Fatalf("server (workers=%d): %v", workers, srvErr)
		}
		return got, client.Stats()
	}

	seq, seqStats := run(1)
	par, parStats := run(8)
	for k := range inputs {
		if seq[k] != par[k] {
			t.Errorf("input %d: workers=1 class %d, workers=8 class %d", k, seq[k], par[k])
		}
	}
	if seqStats != parStats {
		t.Errorf("wire traffic differs across worker counts:\n workers=1: %+v\n workers=8: %+v", seqStats, parStats)
	}
}

func TestConfigRejectsNegativeWorkers(t *testing.T) {
	_, cc := Pipe()
	defer cc.Close()
	if _, err := Dial(cc, Arch{}, Config{Workers: -1}); err == nil {
		t.Fatal("Dial accepted negative Workers")
	}
}
