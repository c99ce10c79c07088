package otext

import (
	"fmt"

	"abnn2/internal/ring"
)

// SendChosen transfers chosen messages: msgs[j][v] is delivered for OT j
// if the receiver chose v. All messages must have length msgLen. One
// flight of m * N * msgLen bytes.
func (s *Sender) SendChosen(msgs [][][]byte, msgLen int) error {
	m := len(msgs)
	blk, err := s.Extend(m)
	if err != nil {
		return err
	}
	n := s.code.N()
	out := make([]byte, 0, m*n*msgLen)
	d := blk.NewDeriver()
	for j := 0; j < m; j++ {
		if len(msgs[j]) != n {
			return fmt.Errorf("otext: OT %d has %d messages, want %d", j, len(msgs[j]), n)
		}
		d.Seek(j)
		for v := 0; v < n; v++ {
			if len(msgs[j][v]) != msgLen {
				return fmt.Errorf("otext: OT %d message %d has %d bytes, want %d", j, v, len(msgs[j][v]), msgLen)
			}
			out = append(out, msgs[j][v]...)
			d.XORPad(v, out[len(out)-msgLen:])
		}
	}
	return s.conn.Send(out)
}

// RecvChosen receives the chosen message of length msgLen for each OT.
func (r *Receiver) RecvChosen(choices []int, msgLen int) ([][]byte, error) {
	blk, err := r.Extend(choices)
	if err != nil {
		return nil, err
	}
	n := r.code.N()
	m := len(choices)
	cts, err := r.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("otext: recv ciphertexts: %w", err)
	}
	if len(cts) != m*n*msgLen {
		return nil, fmt.Errorf("otext: ciphertexts are %d bytes, want %d", len(cts), m*n*msgLen)
	}
	out := make([][]byte, m)
	d := blk.NewDeriver()
	for j := 0; j < m; j++ {
		out[j] = append([]byte(nil), cts[(j*n+choices[j])*msgLen:][:msgLen]...)
		d.Seek(j)
		d.XORPad(out[j])
	}
	return out, nil
}

// SendCorrelatedRing runs m correlated OTs over ring elements, the gadget
// used by the SecureML baseline and by QUOTIENT-style binary
// multiplication. For OT j the sender learns a random x0_j (derived from
// its pad) and the receiver obtains x0_j + deltas[j] if its choice bit is
// 1, or x0_j if 0. Only one correction element per OT crosses the wire,
// so the payload is m*l bits on top of the column matrix.
//
// The code must be the repetition code (N = 2).
func (s *Sender) SendCorrelatedRing(rg ring.Ring, deltas ring.Vec) (x0 ring.Vec, err error) {
	if s.code.N() != 2 {
		return nil, fmt.Errorf("otext: correlated OT requires a 1-out-of-2 code")
	}
	m := len(deltas)
	blk, err := s.Extend(m)
	if err != nil {
		return nil, err
	}
	x0 = make(ring.Vec, m)
	buf := make([]byte, 0, rg.VecBytes(m))
	d := blk.NewDeriver()
	var pad [2][8]byte
	for j := 0; j < m; j++ {
		d.Seek(j)
		d.PadInto(0, pad[0][:])
		d.PadInto(1, pad[1][:])
		p0 := rg.FromBytesFull(pad[0][:])
		p1 := rg.FromBytesFull(pad[1][:])
		x0[j] = p0
		// Correction: c = x0 + delta - p1; a choice-1 receiver computes
		// p1 + c = x0 + delta.
		c := rg.Sub(rg.Add(p0, deltas[j]), p1)
		buf = rg.AppendElem(buf, c)
	}
	if err := s.conn.Send(buf); err != nil {
		return nil, fmt.Errorf("otext: send corrections: %w", err)
	}
	return x0, nil
}

// RecvCorrelatedRing is the receiver side of SendCorrelatedRing: for each
// choice bit b_j it returns x0_j + b_j * delta_j.
func (r *Receiver) RecvCorrelatedRing(rg ring.Ring, choiceBits []byte) (ring.Vec, error) {
	if r.code.N() != 2 {
		return nil, fmt.Errorf("otext: correlated OT requires a 1-out-of-2 code")
	}
	m := len(choiceBits)
	choices := make([]int, m)
	for j, b := range choiceBits {
		choices[j] = int(b & 1)
	}
	blk, err := r.Extend(choices)
	if err != nil {
		return nil, err
	}
	raw, err := r.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("otext: recv corrections: %w", err)
	}
	out := make(ring.Vec, m)
	d := blk.NewDeriver()
	var pad [8]byte
	for j := 0; j < m; j++ {
		var c ring.Elem
		c, raw, err = rg.DecodeElem(raw)
		if err != nil {
			return nil, fmt.Errorf("otext: correction %d: %w", j, err)
		}
		d.Seek(j)
		d.PadInto(pad[:])
		p := rg.FromBytesFull(pad[:])
		if choices[j] == 1 {
			out[j] = rg.Add(p, c)
		} else {
			out[j] = p
		}
	}
	return out, nil
}
