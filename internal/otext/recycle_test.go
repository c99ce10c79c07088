package otext

import (
	"runtime"
	"strings"
	"testing"
)

// TestExtendRecyclesRows: once a round has run, an Extend -> derive ->
// Release round on both sides allocates less than one row matrix. Each
// party transposes into the matrix its last released block handed back
// and the receiver's u flight is a buffer it keeps; what a round still
// allocates is the frame the transport hands the sender (one u flight,
// as many bytes as a row matrix) and a few small headers.
func TestExtendRecyclesRows(t *testing.T) {
	code := WalshHadamardCode(4)
	s, r, _, done := setupPair(t, code)
	defer done()
	s.SetWorkers(1)
	r.SetWorkers(1)
	const m, n = 4096, 16
	rowBytes := m * code.WidthBits() / 8
	choices := make([]int, m)
	for j := range choices {
		choices[j] = j % code.N()
	}
	sPads := make([]byte, 32*code.N()*n)
	rPads := make([]byte, 32*n)
	round := func() {
		rb, err := r.Extend(choices)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := s.Extend(m)
		if err != nil {
			t.Fatal(err)
		}
		sb.NewDeriver().XORPadsRun(sPads, n, m-32, code.N())
		rb.NewDeriver().XORPadsRun(rPads, n, m-32)
		sb.Release()
		rb.Release()
	}
	round()

	const rounds = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	frame := rowBytes // the sender's received u: w x mPad bits
	if perRound := int(after.TotalAlloc-before.TotalAlloc)/rounds - frame; perRound >= rowBytes {
		t.Errorf("a round allocates %d bytes besides the received frame, want under one %d-byte row matrix", perRound, rowBytes)
	}
	// Five matrices' worth of allocations fewer than before the free list
	// (23: each party's row matrix and its header, and the u flight); the
	// 18 left are the frame, the blocks and the worker-pool closures.
	if allocs := testing.AllocsPerRun(rounds, round); allocs > 18 {
		t.Errorf("a round makes %.0f allocations, want at most 18", allocs)
	}
	if got := r.RowScratchPeak(); got != 1 {
		t.Errorf("receiver held %d released row matrices at once, want 1", got)
	}
}

// TestReleasedBlockPanics: a released block's rows are another round's,
// so deriving from it — through a new deriver, one made before Release,
// or a second Release — panics rather than read them.
func TestReleasedBlockPanics(t *testing.T) {
	code := WalshHadamardCode(4)
	s, r, _, done := setupPair(t, code)
	defer done()
	rb, err := r.Extend(make([]int, 8))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := s.Extend(8)
	if err != nil {
		t.Fatal(err)
	}
	sd, rd := sb.NewDeriver(), rb.NewDeriver()
	sb.Release()
	rb.Release()
	pad := make([]byte, 16*code.N())
	for name, f := range map[string]func(){
		"sender NewDeriver":   func() { sb.NewDeriver() },
		"sender XORPadsRun":   func() { sd.XORPadsRun(pad, 16, 0, code.N()) },
		"sender Release":      sb.Release,
		"receiver NewDeriver": func() { rb.NewDeriver() },
		"receiver XORPadsRun": func() { rd.XORPadsRun(pad[:16], 16, 0) },
		"receiver Release":    rb.Release,
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(p.(string), "after Release") {
					t.Errorf("%s on a released block: panic %v", name, p)
				}
			}()
			f()
		}()
	}
}
