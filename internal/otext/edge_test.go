package otext

import (
	"bytes"
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// Edge-of-parameter-space tests: KK13 at its degenerate point N=2
// (where it should behave exactly like a 1-of-2 extension, the IKNP
// regime the repetition code serves) and correlated OT cross-checked
// against the generic chosen-message path it optimises.

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

// TestCorrelatedMatchesChosen checks the COT optimisation against the
// generic path it shortcuts: for each OT the receiver of bit b must end
// with x0 + b*delta, exactly what a chosen-message round over the pair
// (x0, x0+delta) delivers. Ring 33 keeps the partial-byte element
// encoding in play.
func TestCorrelatedMatchesChosen(t *testing.T) {
	rg := ring.New(33)
	const m = 7
	g := prg.New(prg.SeedFromInt(32))
	deltas := g.Vec(rg, m)
	bits := make([]byte, m)
	for i := range bits {
		bits[i] = byte(g.Intn(2))
	}

	snd, rcv, _, done := setupPair(t, WalshHadamardCode(2))
	defer done()
	var (
		x0   ring.Vec
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		x0, serr = snd.SendCorrelatedRing(rg, 1, deltas)
	}()
	got, rerr := rcv.RecvCorrelatedRing(rg, 1, bits)
	wg.Wait()
	if serr != nil || rerr != nil {
		t.Fatalf("correlated round: send=%v recv=%v", serr, rerr)
	}

	// Generic reference round over the explicit message pairs.
	elemBytes := rg.Bytes()
	msgs := make([][][]byte, m)
	choices := make([]int, m)
	for i := 0; i < m; i++ {
		m0 := rg.AppendVec(nil, ring.Vec{x0[i]})
		m1 := rg.AppendVec(nil, ring.Vec{rg.Add(x0[i], deltas[i])})
		msgs[i] = [][]byte{m0, m1}
		choices[i] = int(bits[i])
	}
	ref := runChosen(t, WalshHadamardCode(2), msgs, choices, elemBytes)
	for i := 0; i < m; i++ {
		want := rg.Add(x0[i], rg.Mul(rg.Reduce(uint64(bits[i])), deltas[i]))
		if got[i] != want {
			t.Errorf("OT %d: COT output %d, want x0 + b*delta = %d", i, got[i], want)
		}
		refElem, _, err := rg.DecodeVec(ref[i], 1)
		if err != nil {
			t.Fatalf("OT %d: decode reference: %v", i, err)
		}
		if refElem[0] != want {
			t.Errorf("OT %d: chosen-path reference %d disagrees with %d", i, refElem[0], want)
		}
	}
}

// trailingConn appends one byte to every message it sends once armed.
type trailingConn struct {
	transport.Conn
	armed bool
}

func (c *trailingConn) Send(msg []byte) error {
	if c.armed {
		msg = append(msg[:len(msg):len(msg)], 0)
	}
	return c.Conn.Send(msg)
}

// TestRecvCorrelatedRingRefusesTrailingBytes: an honest correction flight
// with one byte appended is refused, at QUOTIENT's width 1 and at a
// SecureML-style width, instead of being parsed as if the byte were not
// there.
func TestRecvCorrelatedRingRefusesTrailingBytes(t *testing.T) {
	rg := ring.New(32)
	bits := []byte{1, 0, 1, 1}
	for _, width := range []int{1, 3} {
		a, b := transport.Pipe()
		sc := &trailingConn{Conn: a}
		var (
			snd  *Sender
			serr error
			wg   sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			snd, serr = NewSender(sc, WalshHadamardCode(2), 7, prg.New(prg.SeedFromInt(11)))
		}()
		rcv, rerr := NewReceiver(b, WalshHadamardCode(2), 7, prg.New(prg.SeedFromInt(22)))
		wg.Wait()
		if serr != nil || rerr != nil {
			t.Fatalf("setup: sender=%v receiver=%v", serr, rerr)
		}
		sc.armed = true
		deltas := prg.New(prg.SeedFromInt(5)).Vec(rg, len(bits)*width)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, serr = snd.SendCorrelatedRing(rg, width, deltas)
		}()
		_, rerr = rcv.RecvCorrelatedRing(rg, width, bits)
		wg.Wait()
		a.Close()
		if serr != nil {
			t.Fatalf("width %d: send: %v", width, serr)
		}
		if rerr == nil {
			t.Errorf("width %d: a correction flight with a trailing byte was accepted", width)
		}
	}
}
