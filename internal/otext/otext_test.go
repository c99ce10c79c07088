package otext

import (
	"bytes"
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
	buf := make([]byte, 16)
	rep.Encode(0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("C(0) not all-zero")
		}
	}
	rep.Encode(1, buf)
	for _, b := range buf {
		if b != 0xFF {
			t.Fatal("C(1) not all-one")
		}
	}

	wh := WalshHadamardCode(16)
	if wh.N() != 16 || wh.WidthBits() != 256 {
		t.Fatalf("WH code: N=%d width=%d", wh.N(), wh.WidthBits())
	}
}

// The WH code must have minimum distance >= Kappa between any two
// codewords in range; this is the property receiver privacy rests on.
func TestWalshHadamardDistance(t *testing.T) {
	c := WalshHadamardCode(256)
	words := make([][]byte, 256)
	for v := 0; v < 256; v++ {
		words[v] = make([]byte, 32)
		c.Encode(v, words[v])
	}
	for a := 0; a < 256; a++ {
		for b := a + 1; b < 256; b++ {
			d := 0
			for k := 0; k < 32; k++ {
				x := words[a][k] ^ words[b][k]
				for ; x != 0; x &= x - 1 {
					d++
				}
			}
			if d < Kappa {
				t.Fatalf("distance(%d,%d) = %d < %d", a, b, d, Kappa)
			}
		}
	}
}

func TestCodeForSelection(t *testing.T) {
	if CodeFor(2).WidthBits() != 128 {
		t.Error("CodeFor(2) should be the repetition code")
	}
	if CodeFor(4).WidthBits() != 256 {
		t.Error("CodeFor(4) should be Walsh-Hadamard")
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

func TestRandomOT(t *testing.T) {
	const n, m = 4, 10
	snd, rcv, _, done := setupPair(t, WalshHadamardCode(n))
	defer done()
	choices := []int{0, 1, 2, 3, 3, 2, 1, 0, 2, 2}
	var (
		pads [][][]byte
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		pads, _ = snd.SendRandom(m, 16)
	}()
	got, err := rcv.RecvRandom(choices, 16)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		if !bytes.Equal(got[j], pads[j][choices[j]]) {
			t.Fatalf("random OT %d mismatch", j)
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
	wantBytes := int64(m * 256 / 8)
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
