package baseline

import (
	"fmt"

	"abnn2/internal/otext"
	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// QUOTIENT-style ternary multiplication (CCS'19): a ternary weight
// w in {-1, 0, 1} is written as the difference of two bits, w = b+ - b-,
// and w*r is computed with two correlated 1-out-of-2 OTs per weight
// (correlations +r and -r). ABNN2's Table 5 compares against QUOTIENT's
// published end-to-end numbers; this gadget additionally lets the
// benchmark suite compare the two ternary approaches on equal footing
// (2 binary COTs vs one 1-out-of-3 OT).

// QuotientClient is the r-holder (OT sender).
type QuotientClient struct {
	rg ring.Ring
	ot *otext.Sender
}

// QuotientServer holds the ternary weights (OT receiver).
type QuotientServer struct {
	rg ring.Ring
	ot *otext.Receiver
}

// NewQuotientClient sets up the sender role.
func NewQuotientClient(conn transport.Conn, rg ring.Ring, session uint64, workers int, rng *prg.PRG) (*QuotientClient, error) {
	ot, err := otext.NewSender(conn, otext.WalshHadamardCode(2), session, rng)
	if err != nil {
		return nil, fmt.Errorf("baseline: quotient client setup: %w", err)
	}
	ot.SetWorkers(workers)
	return &QuotientClient{rg: rg, ot: ot}, nil
}

// NewQuotientServer sets up the receiver role.
func NewQuotientServer(conn transport.Conn, rg ring.Ring, session uint64, workers int, rng *prg.PRG) (*QuotientServer, error) {
	ot, err := otext.NewReceiver(conn, otext.WalshHadamardCode(2), session, rng)
	if err != nil {
		return nil, fmt.Errorf("baseline: quotient server setup: %w", err)
	}
	ot.SetWorkers(workers)
	return &QuotientServer{rg: rg, ot: ot}, nil
}

// GenerateClient produces V (m x 1) for the product of the server's
// m x n ternary matrix with the client's R (n x 1): two COTs per element,
// correlations +r_j and -r_j. The signature is the other baselines'; the
// gadget is vector-only, so any other R is refused.
func (c *QuotientClient) GenerateClient(m int, R *ring.Mat) (*ring.Mat, error) {
	if R.Cols != 1 {
		return nil, fmt.Errorf("baseline: quotient is vector-only, R has %d columns", R.Cols)
	}
	rg := c.rg
	r := R.Data
	n := len(r)
	deltas := make(ring.Vec, 0, 2*m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			deltas = append(deltas, r[j], rg.Neg(r[j]))
		}
	}
	x0, err := c.ot.SendCorrelatedRing(rg, 1, deltas)
	if err != nil {
		return nil, fmt.Errorf("baseline: quotient client COT: %w", err)
	}
	V := ring.NewMat(m, 1)
	for i := 0; i < m; i++ {
		var acc ring.Elem
		for j := 0; j < 2*n; j++ {
			acc = rg.Add(acc, x0[i*2*n+j])
		}
		V.Data[i] = rg.Neg(acc)
	}
	return V, nil
}

// GenerateServer produces U (m x 1) for ternary weights W (m x n
// row-major, values in {-1, 0, 1}); o must be 1.
func (s *QuotientServer) GenerateServer(W []int64, m, n, o int) (*ring.Mat, error) {
	if o != 1 {
		return nil, fmt.Errorf("baseline: quotient is vector-only, got o=%d", o)
	}
	if len(W) != m*n {
		return nil, fmt.Errorf("baseline: W has %d elements, want %d", len(W), m*n)
	}
	bits := make([]byte, 0, 2*m*n)
	for _, w := range W {
		switch w {
		case 1:
			bits = append(bits, 1, 0)
		case -1:
			bits = append(bits, 0, 1)
		case 0:
			bits = append(bits, 0, 0)
		default:
			return nil, fmt.Errorf("baseline: weight %d is not ternary", w)
		}
	}
	got, err := s.ot.RecvCorrelatedRing(s.rg, 1, bits)
	if err != nil {
		return nil, fmt.Errorf("baseline: quotient server COT: %w", err)
	}
	U := ring.NewMat(m, 1)
	for i := 0; i < m; i++ {
		var acc ring.Elem
		for j := 0; j < 2*n; j++ {
			acc = s.rg.Add(acc, got[i*2*n+j])
		}
		U.Data[i] = acc
	}
	return U, nil
}
