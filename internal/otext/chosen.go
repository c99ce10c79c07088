package otext

import "fmt"

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
