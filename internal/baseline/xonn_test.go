package baseline

import (
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

func TestBNNForwardKnown(t *testing.T) {
	// 3 inputs -> 2 hidden -> 2 outputs, hand-computed.
	b := &BNN{
		Sizes: []int{3, 2, 2},
		Weights: [][]byte{
			{1, 1, 1, 0, 0, 0}, // hidden0 = XNOR with (1,1,1); hidden1 with (0,0,0)
			{1, 0, 0, 1},
		},
	}
	// input 101: hidden0 pop = XNOR(1,1)+XNOR(1,0)+XNOR(1,1) = 2 > 1.5 -> 1
	//            hidden1 pop = XNOR(0,1)+XNOR(0,0)+XNOR(0,1) = 1, 2*1=2 <= 3 -> 0
	// out0 = XNOR(1,1)+XNOR(0,0) = 2; out1 = XNOR(0,1)+XNOR(1,0) = 0.
	scores := b.Forward([]byte{1, 0, 1})
	if scores[0] != 2 || scores[1] != 0 {
		t.Fatalf("scores = %v, want [2 0]", scores)
	}
	if b.Predict([]byte{1, 0, 1}) != 0 {
		t.Fatal("predict != 0")
	}
}

// The garbled circuit must agree with the plaintext BNN on random
// networks and inputs, end to end over the two-party protocol.
func TestXONNSecureMatchesPlain(t *testing.T) {
	rng := prg.New(prg.SeedFromInt(1))
	b := NewBNN(rng, 24, 16, 5)
	for trial := 0; trial < 3; trial++ {
		input := make([]byte, 24)
		for i := range input {
			input[i] = byte(rng.Intn(2))
		}
		want := b.Forward(input)
		ca, cb, _ := transport.MeteredPipe()
		var (
			serr error
			wg   sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			serr = XONNServe(ca, b, 9, prg.New(prg.SeedFromInt(uint64(10+trial))))
		}()
		got, err := XONNQuery(cb, b, input, 9, prg.New(prg.SeedFromInt(uint64(20+trial))))
		wg.Wait()
		ca.Close()
		if serr != nil || err != nil {
			t.Fatalf("trial %d: %v %v", trial, serr, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d score %d: secure %d plain %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestXONNRejectsWrongInputSize(t *testing.T) {
	b := NewBNN(prg.New(prg.SeedFromInt(3)), 4, 2)
	_, cb := transport.Pipe()
	if _, err := XONNQuery(cb, b, []byte{1}, 1, prg.New(prg.SeedFromInt(4))); err == nil {
		t.Fatal("wrong input size accepted")
	}
}
