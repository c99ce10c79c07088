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
	ot, err := otext.NewSender(conn, otext.WalshHadamardCode(2), session, rng)
	if err != nil {
		return nil, fmt.Errorf("baseline: secureml client setup: %w", err)
	}
	ot.SetWorkers(workers)
	return &SecureMLClient{rg: rg, ot: ot}, nil
}

// NewSecureMLServer sets up the receiver role.
func NewSecureMLServer(conn transport.Conn, rg ring.Ring, session uint64, workers int, rng *prg.PRG) (*SecureMLServer, error) {
	ot, err := otext.NewReceiver(conn, otext.WalshHadamardCode(2), session, rng)
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
// Each weight bit consumes one correlated OT of width o whose correlation
// is the whole row slice 2^b * R[j][*], mirroring the multi-batch packing
// so the comparison against ABNN2 is apples-to-apples.
func (c *SecureMLClient) GenerateClient(m int, R *ring.Mat) (*ring.Mat, error) {
	rg := c.rg
	n, o := R.Rows, R.Cols
	l := int(rg.Bits())
	total := m * n * l
	V := ring.NewMat(m, o)
	for ot := 0; ot < total; ot += SecureMLChunk {
		chunk := min(total-ot, SecureMLChunk)
		deltas := make(ring.Vec, 0, chunk*o)
		for g := ot; g < ot+chunk; g++ {
			j, b := (g/l)%n, uint(g%l)
			for _, r := range R.Row(j) {
				deltas = append(deltas, rg.MulConst(uint64(1)<<b, r))
			}
		}
		x0, err := c.ot.SendCorrelatedRing(rg, o, deltas)
		if err != nil {
			return nil, fmt.Errorf("baseline: secureml client COT: %w", err)
		}
		// The server's share sums x0 + w_b*2^b*r over the bits, which is
		// sum(x0) + W*R, so the client's share is -sum(x0).
		for local := 0; local < chunk; local++ {
			vrow := V.Row((ot + local) / (n * l))
			for k := range vrow {
				vrow[k] = rg.Sub(vrow[k], x0[local*o+k])
			}
		}
	}
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
	for ot := 0; ot < total; ot += SecureMLChunk {
		chunk := min(total-ot, SecureMLChunk)
		bits := make([]byte, chunk)
		for local := range bits {
			g := ot + local
			bits[local] = byte(rg.FromSigned(W[g/l]) >> uint(g%l) & 1)
		}
		got, err := s.ot.RecvCorrelatedRing(rg, o, bits)
		if err != nil {
			return nil, fmt.Errorf("baseline: secureml server COT: %w", err)
		}
		for local := 0; local < chunk; local++ {
			urow := U.Row((ot + local) / (n * l))
			for k := range urow {
				urow[k] = rg.Add(urow[k], got[local*o+k])
			}
		}
	}
	return U, nil
}
