package baseot

import (
	"fmt"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

// setupOnce runs one batch, both roles, over an in-memory pipe: what a
// session pays per OT-extension instance before its first request.
func setupOnce(tb testing.TB, pairs [][2]Msg, choices []byte) {
	a, b := transport.Pipe()
	defer a.Close()
	sendErr := make(chan error, 1)
	go func() { sendErr <- Send(a, pairs, prg.New(prg.SeedFromInt(1))) }()
	_, err := Receive(b, choices, prg.New(prg.SeedFromInt(2)))
	if serr := <-sendErr; serr != nil || err != nil {
		tb.Fatalf("sender: %v, receiver: %v", serr, err)
	}
}

// BenchmarkSetup is a session's two base-OT batches: 256 OTs for the
// KK13 triplet extension, 128 for the garbler's IKNP extension.
func BenchmarkSetup(b *testing.B) {
	for _, n := range []int{256, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pairs, choices := makePairs(n), choicePatterns(n, 1)["random"]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				setupOnce(b, pairs, choices)
			}
		})
	}
}

// TestSetupAllocations bounds the garbage of a batch, both parties
// together. Measured: 41.6 allocations per OT at n = 256 with random
// choices (64.6 before the loops stopped making their own). What is left
// is crypto/elliptic's — its big.Int API returns two fresh integers per
// operation and copies each point it is handed, about 38 per OT — and
// the SHA-256 oracle's digest, 3 per OT; the loops themselves allocate
// per batch, not per OT.
func TestSetupAllocations(t *testing.T) {
	const n, perOT = 256, 45
	pairs, choices := makePairs(n), choicePatterns(n, 1)["random"]
	got := testing.AllocsPerRun(3, func() { setupOnce(t, pairs, choices) }) / n
	t.Logf("%.1f allocations per OT", got)
	if got > perOT {
		t.Errorf("%.1f allocations per OT, want at most %d", got, perOT)
	}
}
