package otext

import (
	"fmt"

	"abnn2/internal/ring"
)

// SendChosen transfers chosen messages: msgs[j][v] is delivered for OT j
// if the receiver chose v. All messages must have length msgLen, at least
// 1. One flight of m * N * msgLen bytes.
func (s *Sender) SendChosen(msgs [][][]byte, msgLen int) error {
	m := len(msgs)
	blk, err := s.Extend(m)
	if err != nil {
		return err
	}
	n := s.code.N()
	out := make([]byte, 0, m*n*msgLen)
	for j := 0; j < m; j++ {
		if len(msgs[j]) != n {
			return fmt.Errorf("otext: OT %d has %d messages, want %d", j, len(msgs[j]), n)
		}
		for v := 0; v < n; v++ {
			if len(msgs[j][v]) != msgLen {
				return fmt.Errorf("otext: OT %d message %d has %d bytes, want %d", j, v, len(msgs[j][v]), msgLen)
			}
			out = append(out, msgs[j][v]...)
		}
	}
	blk.NewDeriver().XORPadsRun(out, msgLen, 0, n)
	blk.Release()
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
		d.XORPadsRun(out[j], msgLen, j)
	}
	blk.Release()
	return out, nil
}

// SendCorrelatedRing runs m = len(deltas)/width correlated OTs over
// vectors of width ring elements, the gadget behind the SecureML baseline
// (width o, one row slice per weight bit) and QUOTIENT-style binary
// multiplication (width 1). For OT j the sender learns a random x0_j —
// elements j*width .. j*width+width-1 of the result, derived from its pad
// — and the receiver obtains x0_j + delta_j if its choice bit is 1, or
// x0_j if 0. Only the corrections cross the wire, one element per delta,
// so the payload is len(deltas)*l bits on top of the column matrix.
//
// The code must be the repetition code (N = 2).
func (s *Sender) SendCorrelatedRing(rg ring.Ring, width int, deltas ring.Vec) (x0 ring.Vec, err error) {
	if s.code.N() != 2 {
		return nil, fmt.Errorf("otext: correlated OT requires a 1-out-of-2 code")
	}
	if width < 1 || len(deltas)%width != 0 {
		return nil, fmt.Errorf("otext: %d deltas do not split into OTs of width %d", len(deltas), width)
	}
	m := len(deltas) / width
	blk, err := s.Extend(m)
	if err != nil {
		return nil, err
	}
	x0 = make(ring.Vec, len(deltas))
	buf := make([]byte, rg.VecBytes(len(deltas)))
	d := blk.NewDeriver()
	pads := make([]byte, 2*width*8)
	p0, p1 := pads[:width*8], pads[width*8:]
	for j := 0; j < m; j++ {
		clear(pads)
		d.XORPadsRun(pads, width*8, j, 2)
		for k := 0; k < width; k++ {
			e := j*width + k
			x0[e] = rg.FromBytesFull(p0[k*8:])
			// Correction: c = x0 + delta - p1; a choice-1 receiver computes
			// p1 + c = x0 + delta.
			c := rg.Sub(rg.Add(x0[e], deltas[e]), rg.FromBytesFull(p1[k*8:]))
			rg.PutElem(buf[e*rg.Bytes():], c)
		}
	}
	blk.Release()
	if err := s.conn.Send(buf); err != nil {
		return nil, fmt.Errorf("otext: send corrections: %w", err)
	}
	return x0, nil
}

// RecvCorrelatedRing is the receiver side of SendCorrelatedRing: for each
// choice bit b_j it returns the width elements x0_j + b_j * delta_j. A
// correction flight of any length but the honest one is refused.
func (r *Receiver) RecvCorrelatedRing(rg ring.Ring, width int, choiceBits []byte) (ring.Vec, error) {
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
	if want := rg.VecBytes(m * width); len(raw) != want {
		return nil, fmt.Errorf("otext: corrections are %d bytes, want %d", len(raw), want)
	}
	out := make(ring.Vec, m*width)
	d := blk.NewDeriver()
	pad := make([]byte, width*8)
	for j := 0; j < m; j++ {
		clear(pad)
		d.XORPadsRun(pad, width*8, j)
		for k := 0; k < width; k++ {
			e := j*width + k
			out[e] = rg.FromBytesFull(pad[k*8:])
			if choices[j] == 1 {
				out[e] = rg.Add(out[e], rg.GetElem(raw[e*rg.Bytes():]))
			}
		}
	}
	blk.Release()
	return out, nil
}
