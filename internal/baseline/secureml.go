// Package baseline implements the comparison systems the paper evaluates
// against: SecureML's OT-based multiplication-triplet generation (S&P'17),
// MiniONN's HE-based offline phase (CCS'17, over Paillier here — see
// DESIGN.md "Substitutions"), and QUOTIENT's ternary multiplication
// gadget (CCS'19).
package baseline

import (
	"fmt"

	"abnn2/internal/otext"
	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// SecureML-style offline phase: the server's weights are full-width l-bit
// values (no quantization) and every product w*r is computed by binary
// decomposition of w — l correlated OTs per element, the i-th transferring
// x0 + w_i * 2^i * r. This is the classic OT-based triplet generation the
// paper's Table 1 and Table 3 compare against.
//
// Roles mirror the ABNN2 protocol: server = OT receiver (choice bits are
// the weight bits), client = OT sender (knows r).

// SecureMLClient is the client-side generator.
type SecureMLClient struct {
	rg ring.Ring
	ot *otext.Sender
}

// SecureMLServer is the server-side generator.
type SecureMLServer struct {
	rg ring.Ring
	ot *otext.Receiver
}

// NewSecureMLClient sets up the sender role over an IKNP session. workers
// bounds the parallelism of the generator's kernels, here and on every
// constructor of the package (0 = one worker per CPU); it is purely local:
// the transcript does not depend on it.
func NewSecureMLClient(conn transport.Conn, rg ring.Ring, session uint64, workers int, rng *prg.PRG) (*SecureMLClient, error) {
	ot, err := otext.NewSender(conn, otext.RepetitionCode(), session, rng)
	if err != nil {
		return nil, fmt.Errorf("baseline: secureml client setup: %w", err)
	}
	ot.SetWorkers(workers)
	return &SecureMLClient{rg: rg, ot: ot}, nil
}

// NewSecureMLServer sets up the receiver role.
func NewSecureMLServer(conn transport.Conn, rg ring.Ring, session uint64, workers int, rng *prg.PRG) (*SecureMLServer, error) {
	ot, err := otext.NewReceiver(conn, otext.RepetitionCode(), session, rng)
	if err != nil {
		return nil, fmt.Errorf("baseline: secureml server setup: %w", err)
	}
	ot.SetWorkers(workers)
	return &SecureMLServer{rg: rg, ot: ot}, nil
}

// SecureMLChunk bounds OTs per extension round; at l = 64 OTs per element
// this keeps messages comfortably sized. Each round is two flights a party
// waits on, which is what core's cost table prices.
const SecureMLChunk = 8192

// GenerateClient produces the client's share matrix V (m x o) for the
// multiplication of the server's m x n matrix with the client's R (n x o).
// Each weight bit consumes one correlated OT whose correlation is the
// whole row slice 2^b * R[j][*] — o ring elements per OT, mirroring the
// multi-batch packing so the comparison against ABNN2 is apples-to-apples.
func (c *SecureMLClient) GenerateClient(m int, R *ring.Mat) (*ring.Mat, error) {
	rg := c.rg
	n, o := R.Rows, R.Cols
	l := int(rg.Bits())
	total := m * n * l
	V := ring.NewMat(m, o)
	ot := 0
	for ot < total {
		chunk := total - ot
		if chunk > SecureMLChunk {
			chunk = SecureMLChunk
		}
		blk, err := c.ot.Extend(chunk)
		if err != nil {
			return nil, fmt.Errorf("baseline: secureml client extend: %w", err)
		}
		payload := make([]byte, 0, chunk*o*rg.Bytes())
		pads := blk.NewDeriver()
		p0raw, p1raw := make([]byte, o*8), make([]byte, o*8)
		for local := 0; local < chunk; local++ {
			g := ot + local
			i := g / (n * l)
			j := (g / l) % n
			b := uint(g % l)
			rrow := R.Row(j)
			vrow := V.Row(i)
			// Pads: p0 for choice 0, p1 for choice 1, o elements each.
			pads.Seek(local)
			pads.PadInto(0, p0raw)
			pads.PadInto(1, p1raw)
			for k := 0; k < o; k++ {
				p0 := rg.FromBytesFull(p0raw[k*8:])
				p1 := rg.FromBytesFull(p1raw[k*8:])
				// Client share accumulates -x0 = -p0; correction lets a
				// choice-1 server learn p0 + 2^b*r.
				vrow[k] = rg.Add(vrow[k], rg.Neg(p0))
				delta := rg.MulConst(uint64(1)<<b, rrow[k])
				corr := rg.Sub(rg.Add(p0, delta), p1)
				payload = rg.AppendElem(payload, corr)
			}
		}
		if err := c.ot.Conn().Send(payload); err != nil {
			return nil, fmt.Errorf("baseline: secureml client payload: %w", err)
		}
		ot += chunk
	}
	// V currently holds sum(-x0); negate convention: client share v with
	// u + v = W*R means v = -sum(x0)? Server's u = sum(x_{w_b}) =
	// sum(x0 + w_b*2^b*r) = sum(x0) + W*R, so v = -sum(x0). Done above.
	return V, nil
}

// GenerateServer produces the server's share matrix U (m x o) for its
// full-width weight matrix W (m x n, row-major, signed l-bit values).
func (s *SecureMLServer) GenerateServer(W []int64, m, n, o int) (*ring.Mat, error) {
	if len(W) != m*n {
		return nil, fmt.Errorf("baseline: W has %d elements, want %d", len(W), m*n)
	}
	rg := s.rg
	l := int(rg.Bits())
	total := m * n * l
	U := ring.NewMat(m, o)
	ot := 0
	for ot < total {
		chunk := total - ot
		if chunk > SecureMLChunk {
			chunk = SecureMLChunk
		}
		choices := make([]int, chunk)
		for local := 0; local < chunk; local++ {
			g := ot + local
			w := rg.FromSigned(W[g/l])
			choices[local] = int((w >> uint(g%l)) & 1)
		}
		blk, err := s.ot.Extend(choices)
		if err != nil {
			return nil, fmt.Errorf("baseline: secureml server extend: %w", err)
		}
		payload, err := s.ot.Conn().Recv()
		if err != nil {
			return nil, fmt.Errorf("baseline: secureml server payload: %w", err)
		}
		if want := chunk * o * rg.Bytes(); len(payload) != want {
			return nil, fmt.Errorf("baseline: secureml payload is %d bytes, want %d", len(payload), want)
		}
		pads := blk.NewDeriver()
		praw := make([]byte, o*8)
		for local := 0; local < chunk; local++ {
			g := ot + local
			i := g / (n * l)
			urow := U.Row(i)
			pads.Seek(local)
			pads.PadInto(praw)
			for k := 0; k < o; k++ {
				p := rg.FromBytesFull(praw[k*8:])
				if choices[local] == 1 {
					corr, _, err := rg.DecodeElem(payload[(local*o+k)*rg.Bytes():])
					if err != nil {
						return nil, err
					}
					p = rg.Add(p, corr)
				}
				urow[k] = rg.Add(urow[k], p)
			}
		}
		ot += chunk
	}
	return U, nil
}
