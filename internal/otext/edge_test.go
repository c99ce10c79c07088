package otext

import (
	"bytes"
	"sync"
	"testing"

	"abnn2/internal/prg"
)

// Edge-of-parameter-space tests: KK13 at its degenerate point N=2,
// where it should behave exactly like a 1-of-2 extension, the IKNP
// regime the repetition code serves.

// runChosen drives one chosen-message round over a fresh pair and
// returns the receiver's outputs.
func runChosen(t *testing.T, code Code, msgs [][][]byte, choices []int, msgLen int) [][]byte {
	t.Helper()
	snd, rcv, _, done := setupPair(t, code)
	defer done()
	var (
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serr = snd.SendChosen(msgs, msgLen)
	}()
	got, rerr := rcv.RecvChosen(choices, msgLen)
	wg.Wait()
	if serr != nil || rerr != nil {
		t.Fatalf("chosen round: send=%v recv=%v", serr, rerr)
	}
	return got
}

// TestKK13DegeneratesToTwoMessages pins the N=2 edge of the
// Walsh-Hadamard code: same message matrix, same choices, evaluated
// under both WH(2) (KK13's smallest instantiation) and the repetition
// code (the IKNP special case). The transferred messages must agree —
// the two constructions differ only in codeword width and therefore in
// bandwidth, never in output.
func TestKK13DegeneratesToTwoMessages(t *testing.T) {
	const m, msgLen = 9, 12
	g := prg.New(prg.SeedFromInt(31))
	msgs := make([][][]byte, m)
	choices := make([]int, m)
	for i := range msgs {
		msgs[i] = [][]byte{g.Bytes(msgLen), g.Bytes(msgLen)}
		choices[i] = g.Intn(2)
	}
	wh := WalshHadamardCode(2)
	if wh.N() != 2 {
		t.Fatalf("WH(2) N = %d", wh.N())
	}
	gotWH := runChosen(t, wh, msgs, choices, msgLen)
	gotRep := runChosen(t, WalshHadamardCode(2), msgs, choices, msgLen)
	for i := range msgs {
		want := msgs[i][choices[i]]
		if !bytes.Equal(gotWH[i], want) {
			t.Errorf("OT %d: WH(2) delivered %x, want %x", i, gotWH[i], want)
		}
		if !bytes.Equal(gotRep[i], want) {
			t.Errorf("OT %d: repetition delivered %x, want %x", i, gotRep[i], want)
		}
	}
}
