package otext

import (
	"crypto/cipher"
	"sync"
	"testing"

	"abnn2/internal/prg"
)

// countingBlock counts the oracle's AES blocks on their way to the real
// permutation, so the pads stay what they are: a FastOracle literal
// evaluates through its Block one block per call.
type countingBlock struct {
	cipher.Block
	calls int
}

func (c *countingBlock) Encrypt(dst, src []byte) {
	c.calls++
	c.Block.Encrypt(dst, src)
}

// TestPadOperationCounts is the count the one-batch triplet's timing
// rests on: an OT whose N pads are n bytes each, over a w-column code,
// costs the sender 1 + N*ceil(w/128) AES blocks and the receiver
// 1 + ceil(w/128) — 9 and 3 at 4(2,2), where the oracle that finalised
// and expanded every pad paid 18 and 6 — plus ceil(n/16) expansion calls
// per pad only when n > 16; and the header block is paid once per
// deriver, not once per OT of a run.
func TestPadOperationCounts(t *testing.T) {
	counter := &countingBlock{Block: oracle.Block}
	old := oracle
	oracle = &prg.FastOracle{Block: counter}
	defer func() { oracle = old }()

	const m = 16
	for _, c := range []struct{ n, w int }{{2, 128}, {4, 192}, {16, 240}, {256, 256}} {
		code := WalshHadamardCode(c.n)
		if code.N() != c.n || code.WidthBits() != c.w {
			t.Fatalf("code for N=%d has N=%d, %d columns, want %d", c.n, code.N(), code.WidthBits(), c.w)
		}
		snd, rcv, _, done := setupPair(t, code)
		var (
			sb *SenderBlock
			wg sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sb, _ = snd.Extend(m)
		}()
		rb, err := rcv.Extend(make([]int, m))
		wg.Wait()
		if err != nil || sb == nil {
			t.Fatalf("N=%d: extend failed: %v", c.n, err)
		}
		rowBlocks := (c.w + 127) / 128
		for _, padBytes := range []int{4, 8, 16, 17, 64} {
			expand := 0
			if padBytes > 16 {
				expand = (padBytes + 15) / 16
			}
			pad, pads := make([]byte, m*padBytes), make([]byte, m*c.n*padBytes)

			counter.calls = 0
			sd := sb.NewDeriver()
			sd.XORPadsRun(pads, padBytes, 0, c.n)
			if perOT := 1 + c.n*(rowBlocks+expand); counter.calls != 1+m*perOT {
				t.Errorf("N=%d w=%d n=%d: sender made %d AES calls over %d OTs, want 1 header + %d x %d", c.n, c.w, padBytes, counter.calls, m, m, perOT)
			}

			counter.calls = 0
			rd := rb.NewDeriver()
			rd.XORPadsRun(pad, padBytes, 0)
			if perOT := 1 + rowBlocks + expand; counter.calls != 1+m*perOT {
				t.Errorf("N=%d w=%d n=%d: receiver made %d AES calls over %d OTs, want 1 header + %d x %d", c.n, c.w, padBytes, counter.calls, m, m, perOT)
			}
		}
		done()
	}
}
