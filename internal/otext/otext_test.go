package otext

import (
	"bytes"
	"math/bits"
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// setupPair creates a connected Sender/Receiver pair over a metered pipe.
func setupPair(t *testing.T, code Code) (*Sender, *Receiver, *transport.Meter, func()) {
	t.Helper()
	ca, cb, m := transport.MeteredPipe()
	var (
		snd     *Sender
		sndErr  error
		wgSetup sync.WaitGroup
	)
	wgSetup.Add(1)
	go func() {
		defer wgSetup.Done()
		snd, sndErr = NewSender(ca, code, 7, prg.New(prg.SeedFromInt(11)))
	}()
	rcv, rcvErr := NewReceiver(cb, code, 7, prg.New(prg.SeedFromInt(22)))
	wgSetup.Wait()
	if sndErr != nil || rcvErr != nil {
		t.Fatalf("setup: sender=%v receiver=%v", sndErr, rcvErr)
	}
	return snd, rcv, m, func() { ca.Close() }
}

func TestCodes(t *testing.T) {
	rep := RepetitionCode()
	if rep.N() != 2 || rep.WidthBits() != 128 {
		t.Fatalf("repetition code: N=%d width=%d", rep.N(), rep.WidthBits())
	}
	// N = 2 is IKNP's repetition code byte for byte, whichever
	// constructor built it.
	for _, c := range []Code{rep, WalshHadamardCode(2)} {
		buf := make([]byte, 16)
		c.Encode(0, buf)
		if !bytes.Equal(buf, make([]byte, 16)) {
			t.Fatal("C(0) not all-zero")
		}
		c.Encode(1, buf)
		if !bytes.Equal(buf, bytes.Repeat([]byte{0xFF}, 16)) {
			t.Fatal("C(1) not all-one")
		}
	}

	wh := WalshHadamardCode(16)
	if wh.N() != 16 || wh.WidthBits() != 240 {
		t.Fatalf("WH code: N=%d width=%d", wh.N(), wh.WidthBits())
	}
	// The widest member is the full code (what the benchmark's kernel
	// replay builds).
	if w := WalshHadamardCode(256).WidthBits(); w != 256 {
		t.Fatalf("WH(256) width = %d, want 256", w)
	}
	if w := (Code{}).WidthBits(); w != 0 {
		t.Fatalf("zero Code width = %d, want 0", w)
	}
}

// codewords returns the n codewords of the code for n choices.
func codewords(n int) [][]byte {
	c := WalshHadamardCode(n)
	words := make([][]byte, n)
	for v := range words {
		words[v] = make([]byte, c.WidthBits()/8)
		c.Encode(v, words[v])
	}
	return words
}

// Every code the constructor can return must keep any two codewords in
// range at least Kappa bits apart; this is the property receiver privacy
// rests on. Puncturing drops only columns that are zero on every codeword
// in use, so the distance is the full code's, exactly Kappa, at every n.
func TestWalshHadamardDistance(t *testing.T) {
	for n := 2; n <= 256; n++ {
		words := codewords(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				d := 0
				for k := range words[a] {
					d += bits.OnesCount8(words[a][k] ^ words[b][k])
				}
				if d != Kappa {
					t.Fatalf("n=%d: distance(%d,%d) = %d, want exactly %d", n, a, b, d, Kappa)
				}
			}
		}
	}
}

// TestCodeNesting: the code for a < b choices is a byte prefix of the
// code for b on the choices both have. Running a layer on a prefix of the
// session's columns and widening a session by base OTs for the missing
// columns only both rest on it.
func TestCodeNesting(t *testing.T) {
	full := codewords(256)
	for n := 2; n <= 256; n++ {
		for v, w := range codewords(n) {
			if !bytes.Equal(w, full[v][:len(w)]) {
				t.Fatalf("n=%d: codeword %d is not a prefix of the 256-choice codeword", n, v)
			}
		}
	}
}

// TestCodeForSelection: the width is chosen from N alone — the columns
// the next power of two of codewords uses, in whole bytes.
func TestCodeForSelection(t *testing.T) {
	for _, tc := range []struct{ lo, hi, width int }{
		{2, 2, 128}, {3, 4, 192}, {5, 8, 224}, {9, 16, 240}, {17, 32, 248}, {33, 256, 256},
	} {
		for n := tc.lo; n <= tc.hi; n++ {
			if got := WalshHadamardCode(n).WidthBits(); got != tc.width {
				t.Errorf("WalshHadamardCode(%d).WidthBits() = %d, want %d", n, got, tc.width)
			}
		}
	}
}

// senderPad and receiverPad derive one pad through a fresh deriver.
func senderPad(b *SenderBlock, j, v, n int) []byte {
	d := b.NewDeriver()
	d.Seek(j)
	out := make([]byte, n)
	d.PadInto(v, out)
	return out
}

func receiverPad(b *ReceiverBlock, j, n int) []byte {
	d := b.NewDeriver()
	d.Seek(j)
	out := make([]byte, n)
	d.PadInto(out)
	return out
}

// TestDeriversMatchOracleDefinition pins the pads to their definition,
// H(session, counter_j, q_j XOR (C(v) AND s)) and H(session, counter_j,
// t_j), evaluated through the public FastOracle.Hash with the codeword
// taken from Code.Encode. The derivers are reused across OTs, visit the
// candidates out of order, and two of them alternate over two OTs, so
// nothing a deriver caches may leak from one query into the next.
func TestDeriversMatchOracleDefinition(t *testing.T) {
	for _, code := range []Code{RepetitionCode(), WalshHadamardCode(16)} {
		snd, rcv, _, done := setupPair(t, code)
		n := code.N()
		g := prg.New(prg.SeedFromInt(uint64(n)))
		const m = 21 // not a multiple of 8: the block is padded
		choices := make([]int, m)
		for i := range choices {
			choices[i] = g.Intn(n)
		}
		var (
			sb *SenderBlock
			wg sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sb, _ = snd.Extend(m)
		}()
		rb, err := rcv.Extend(choices)
		wg.Wait()
		if err != nil || sb == nil {
			t.Fatalf("n=%d: extend failed: %v", n, err)
		}
		wantSender := func(j, v, nbytes int) []byte {
			cw := make([]byte, code.WidthBits()/8)
			code.Encode(v, cw)
			data := make([]byte, len(cw))
			for k, q := range sb.q.Row(j) {
				data[k] = q ^ cw[k]&snd.s[k]
			}
			return oracle.Hash(snd.session, sb.base+uint64(j), 0, data, nbytes)
		}
		sd := [2]*SenderDeriver{sb.NewDeriver(), sb.NewDeriver()}
		rd := rb.NewDeriver()
		for j := m - 1; j >= 1; j-- {
			ots := [2]int{j, j - 1}
			for i, d := range sd {
				d.Seek(ots[i])
			}
			for step := 0; step < 2*n; step++ {
				v := (n - 1 - step*3%n + n) % n
				for i, d := range sd {
					nbytes := 1 + (step*7+j)%40
					got := make([]byte, nbytes)
					d.PadInto(v, got)
					if !bytes.Equal(got, wantSender(ots[i], v, nbytes)) {
						t.Fatalf("n=%d OT %d candidate %d: sender pad differs from its definition", n, ots[i], v)
					}
				}
			}
			rd.Seek(j)
			got := make([]byte, 24)
			rd.PadInto(got)
			if want := oracle.Hash(rcv.session, rb.base+uint64(j), 0, rb.t.Row(j), 24); !bytes.Equal(got, want) {
				t.Fatalf("n=%d OT %d: receiver pad differs from its definition", n, j)
			}
			if !bytes.Equal(got, wantSender(j, choices[j], 24)) {
				t.Fatalf("n=%d OT %d: receiver pad is not the sender's pad for the choice", n, j)
			}
		}
		done()
	}
}

// TestPadDerivationAllocatesNothing: once a goroutine holds its derivers,
// the pads of a whole 4096-OT chunk (every candidate on the sending side)
// cost no allocation at all.
func TestPadDerivationAllocatesNothing(t *testing.T) {
	const m, n = 4096, 4
	snd, rcv, _, done := setupPair(t, WalshHadamardCode(n))
	defer done()
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
		t.Fatalf("extend failed: %v", err)
	}
	sd, rd := sb.NewDeriver(), rb.NewDeriver()
	pad := make([]byte, 20)
	allocs := testing.AllocsPerRun(3, func() {
		for j := 0; j < m; j++ {
			sd.Seek(j)
			for v := 0; v < n; v++ {
				sd.XORPad(v, pad)
			}
			rd.Seek(j)
			rd.PadInto(pad)
		}
	})
	if allocs != 0 {
		t.Fatalf("deriving the pads of %d OTs made %v allocations, want 0", m, allocs)
	}
}

func TestDeriverSeekOutOfRangePanics(t *testing.T) {
	snd, rcv, _, done := setupPair(t, RepetitionCode())
	defer done()
	var (
		sb *SenderBlock
		wg sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sb, _ = snd.Extend(3)
	}()
	rb, err := rcv.Extend([]int{0, 1, 0})
	wg.Wait()
	if err != nil || sb == nil {
		t.Fatalf("extend failed: %v", err)
	}
	// Index 3 exists in the padded matrix but is not an OT of the block.
	for name, seek := range map[string]func(){
		"sender":   func() { sb.NewDeriver().Seek(3) },
		"receiver": func() { rb.NewDeriver().Seek(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Seek out of range did not panic", name)
				}
			}()
			seek()
		}()
	}
}

func TestPadAgreement1of2(t *testing.T) {
	snd, rcv, _, done := setupPair(t, RepetitionCode())
	defer done()
	choices := []int{0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0}
	var (
		sb  *SenderBlock
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sb, err = snd.Extend(len(choices))
	}()
	rb, rerr := rcv.Extend(choices)
	wg.Wait()
	if err != nil || rerr != nil {
		t.Fatalf("extend: %v %v", err, rerr)
	}
	for j, c := range choices {
		want := senderPad(sb, j, c, 32)
		got := receiverPad(rb, j, 32)
		if !bytes.Equal(want, got) {
			t.Fatalf("OT %d: pads disagree for chosen value", j)
		}
		other := senderPad(sb, j, 1-c, 32)
		if bytes.Equal(other, got) {
			t.Fatalf("OT %d: receiver pad matches unchosen value", j)
		}
	}
}

func TestPadAgreement1ofN(t *testing.T) {
	for _, n := range []int{4, 16, 256} {
		snd, rcv, _, done := setupPair(t, WalshHadamardCode(n))
		g := prg.New(prg.SeedFromInt(uint64(n)))
		const m = 40
		choices := make([]int, m)
		for i := range choices {
			choices[i] = g.Intn(n)
		}
		var (
			sb *SenderBlock
			wg sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sb, _ = snd.Extend(m)
		}()
		rb, err := rcv.Extend(choices)
		wg.Wait()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for j, c := range choices {
			if !bytes.Equal(senderPad(sb, j, c, 16), receiverPad(rb, j, 16)) {
				t.Fatalf("n=%d OT %d: pad mismatch", n, j)
			}
			for v := 0; v < n; v++ {
				if v != c && bytes.Equal(senderPad(sb, j, v, 16), receiverPad(rb, j, 16)) {
					t.Fatalf("n=%d OT %d: pad for %d collides with choice %d", n, j, v, c)
				}
			}
		}
		done()
	}
}

func TestSequentialExtendsIndependent(t *testing.T) {
	snd, rcv, _, done := setupPair(t, RepetitionCode())
	defer done()
	for round := 0; round < 3; round++ {
		choices := []int{round % 2, 1, 0}
		var (
			sb *SenderBlock
			wg sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sb, _ = snd.Extend(len(choices))
		}()
		rb, err := rcv.Extend(choices)
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for j, c := range choices {
			if !bytes.Equal(senderPad(sb, j, c, 16), receiverPad(rb, j, 16)) {
				t.Fatalf("round %d OT %d mismatch", round, j)
			}
		}
	}
}

func TestChosenMessages1ofN(t *testing.T) {
	const n, m, msgLen = 8, 20, 24
	snd, rcv, _, done := setupPair(t, WalshHadamardCode(n))
	defer done()
	g := prg.New(prg.SeedFromInt(77))
	msgs := make([][][]byte, m)
	for j := range msgs {
		msgs[j] = make([][]byte, n)
		for v := range msgs[j] {
			msgs[j][v] = g.Bytes(msgLen)
		}
	}
	choices := make([]int, m)
	for i := range choices {
		choices[i] = g.Intn(n)
	}
	var (
		sendErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendErr = snd.SendChosen(msgs, msgLen)
	}()
	got, err := rcv.RecvChosen(choices, msgLen)
	wg.Wait()
	if sendErr != nil || err != nil {
		t.Fatalf("chosen: %v %v", sendErr, err)
	}
	for j := range got {
		if !bytes.Equal(got[j], msgs[j][choices[j]]) {
			t.Fatalf("OT %d: wrong message", j)
		}
	}
}

func TestCorrelatedRing(t *testing.T) {
	rg := ring.New(32)
	snd, rcv, _, done := setupPair(t, RepetitionCode())
	defer done()
	g := prg.New(prg.SeedFromInt(88))
	const m = 50
	deltas := g.Vec(rg, m)
	bits := make([]byte, m)
	for i := range bits {
		bits[i] = byte(g.Intn(2))
	}
	var (
		x0   ring.Vec
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		x0, serr = snd.SendCorrelatedRing(rg, deltas)
	}()
	xb, err := rcv.RecvCorrelatedRing(rg, bits)
	wg.Wait()
	if serr != nil || err != nil {
		t.Fatalf("cot: %v %v", serr, err)
	}
	for j := 0; j < m; j++ {
		want := x0[j]
		if bits[j] == 1 {
			want = rg.Add(x0[j], deltas[j])
		}
		if xb[j] != want {
			t.Fatalf("cot %d: got %d want %d (bit %d)", j, xb[j], want, bits[j])
		}
	}
}

// Communication of one Extend must match the analytic formula:
// m_pad * WidthBits bits from receiver to sender.
func TestExtendCommunication(t *testing.T) {
	snd, rcv, meter, done := setupPair(t, WalshHadamardCode(16))
	defer done()
	meter.Reset()
	const m = 64
	choices := make([]int, m)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		snd.Extend(m)
	}()
	if _, err := rcv.Extend(choices); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	s := meter.Snapshot()
	wantBytes := int64(m * 240 / 8) // N = 16: 240 columns
	// Receiver is party B in setupPair ordering.
	if s.BytesBA != wantBytes {
		t.Errorf("u matrix bytes = %d, want %d", s.BytesBA, wantBytes)
	}
	if s.BytesAB != 0 {
		t.Errorf("sender sent %d bytes during Extend, want 0", s.BytesAB)
	}
}

func TestChoiceOutOfRange(t *testing.T) {
	snd, rcv, _, done := setupPair(t, WalshHadamardCode(4))
	defer done()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The sender side will error out when the pipe closes or succeed
		// reading a matrix; either way, don't block the test.
		snd.Extend(1)
	}()
	_, err := rcv.Extend([]int{7})
	if err == nil {
		t.Error("choice 7 accepted for N=4")
	}
	done() // unblock sender goroutine
	wg.Wait()
}

// extendPair runs one Extend round on both sides.
func extendPair(t *testing.T, snd *Sender, rcv *Receiver, choices []int) (*SenderBlock, *ReceiverBlock) {
	t.Helper()
	var (
		sb   *SenderBlock
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sb, serr = snd.Extend(len(choices))
	}()
	rb, rerr := rcv.Extend(choices)
	wg.Wait()
	if serr != nil || rerr != nil {
		t.Fatalf("extend: sender=%v receiver=%v", serr, rerr)
	}
	return sb, rb
}

// checkPads requires the receiver's pad to be the sender's pad for the
// choice and for no other candidate.
func checkPads(t *testing.T, what string, sb *SenderBlock, rb *ReceiverBlock, n int, choices []int) {
	t.Helper()
	for j, c := range choices {
		got := receiverPad(rb, j, 16)
		for v := 0; v < n; v++ {
			if bytes.Equal(senderPad(sb, j, v, 16), got) != (v == c) {
				t.Fatalf("%s: OT %d candidate %d vs choice %d: wrong pad agreement", what, j, v, c)
			}
		}
	}
}

// TestUsePrefix: a pair set up for a wide code runs any narrower one on a
// prefix of its columns — the u flight shrinks to the narrower width, the
// pads agree — and going back to the wide code still works, as do blocks
// extended before a Use. A code wider than the base OTs is refused.
func TestUsePrefix(t *testing.T) {
	wide := WalshHadamardCode(16)
	snd, rcv, meter, done := setupPair(t, wide)
	defer done()
	if err := snd.Use(WalshHadamardCode(17)); err == nil {
		t.Error("sender accepted a code wider than its base OTs")
	}
	if err := rcv.Use(WalshHadamardCode(17)); err == nil {
		t.Error("receiver accepted a code wider than its base OTs")
	}
	g := prg.New(prg.SeedFromInt(5))
	const m = 24
	var (
		firstS *SenderBlock
		firstR *ReceiverBlock
		firstC []int
	)
	for round, n := range []int{16, 4, 2, 3, 16} {
		code := WalshHadamardCode(n)
		if err := snd.Use(code); err != nil {
			t.Fatal(err)
		}
		if err := rcv.Use(code); err != nil {
			t.Fatal(err)
		}
		choices := make([]int, m)
		for i := range choices {
			choices[i] = g.Intn(n)
		}
		meter.Reset()
		sb, rb := extendPair(t, snd, rcv, choices)
		if got, want := meter.Snapshot().BytesBA, int64(m*code.WidthBits()/8); got != want {
			t.Errorf("N=%d: u matrix is %d bytes, want %d", n, got, want)
		}
		checkPads(t, "current round", sb, rb, n, choices)
		if round == 0 {
			firstS, firstR, firstC = sb, rb, choices
		}
	}
	checkPads(t, "first round after four Use calls", firstS, firstR, 16, firstC)
}

// TestWiden: a pair set up at N = 4 (192 columns) widened to N = 16 runs
// base OTs for the 48 missing columns only, once, and then extends at the
// wider code; the columns it had keep their streams.
func TestWiden(t *testing.T) {
	narrow, wide := WalshHadamardCode(4), WalshHadamardCode(16)
	snd, rcv, meter, done := setupPair(t, narrow)
	defer done()
	widen := func() int64 {
		meter.Reset()
		var (
			serr error
			wg   sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			serr = snd.Widen(wide, prg.New(prg.SeedFromInt(33)))
		}()
		rerr := rcv.Widen(wide, prg.New(prg.SeedFromInt(44)))
		wg.Wait()
		if serr != nil || rerr != nil {
			t.Fatalf("widen: sender=%v receiver=%v", serr, rerr)
		}
		return meter.Snapshot().TotalBytes()
	}
	// One base-OT batch of n: A (65 bytes), n points, n ciphertext pairs.
	const added = 240 - 192
	if got, want := widen(), int64(65+added*(65+32)); got != want {
		t.Errorf("widening moved %d bytes, want %d (%d base OTs)", got, want, added)
	}
	if got := widen(); got != 0 {
		t.Errorf("widening an already wide pair moved %d bytes", got)
	}
	g := prg.New(prg.SeedFromInt(6))
	for _, code := range []Code{narrow, wide} {
		if err := snd.Use(code); err != nil {
			t.Fatal(err)
		}
		if err := rcv.Use(code); err != nil {
			t.Fatal(err)
		}
		choices := make([]int, 40)
		for i := range choices {
			choices[i] = g.Intn(code.N())
		}
		sb, rb := extendPair(t, snd, rcv, choices)
		checkPads(t, "after widening", sb, rb, code.N(), choices)
	}
}
