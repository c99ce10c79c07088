package testkit

import (
	"fmt"

	"abnn2/internal/baseline"
	"abnn2/internal/core"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// Secure matrix-multiplication backends behind one oracle: the ABNN2
// triplet protocol in each of its modes, plus the three comparison
// baselines (SecureML OT triplets, MiniONN Paillier, QUOTIENT ternary
// COT). All produce additive shares U (server) and V (client) of W*R,
// so one differential check — U + V == W*R over the ring — covers all
// of them.

// MatmulFunc runs one secure matmul backend for server weights W
// (m x n, row-major) and client shares R (n x o), returning the two
// output shares (m x o each). seed pins both parties' randomness.
type MatmulFunc func(rg ring.Ring, W []int64, m, n int, R *ring.Mat, seed uint64) (U, V *ring.Mat, err error)

// ABNN2Matmul returns the paper's 1-out-of-N triplet protocol under the
// given fragmentation scheme and payload mode (OneBatch requires o = 1).
func ABNN2Matmul(scheme quant.Scheme, mode core.Mode) MatmulFunc {
	return func(rg ring.Ring, W []int64, m, n int, R *ring.Mat, seed uint64) (*ring.Mat, *ring.Mat, error) {
		p := core.Params{Ring: rg, Scheme: scheme}
		sh := core.MatShape{M: m, N: n, O: R.Cols}
		serverConn, clientConn := transport.Pipe()
		type res struct {
			U   *ring.Mat
			err error
		}
		ch := make(chan res, 1)
		go func() {
			srv, err := core.NewServerTripletsSeeded(serverConn, p, 7, prg.New(prg.SeedFromInt(2*seed+1)))
			if err != nil {
				ch <- res{nil, err}
				return
			}
			U, err := srv.GenerateServer(sh, W, mode)
			ch <- res{U, err}
		}()
		cli, err := core.NewClientTriplets(clientConn, p, 7, prg.New(prg.SeedFromInt(2*seed+2)))
		if err != nil {
			clientConn.Close()
			<-ch
			return nil, nil, err
		}
		V, cerr := cli.GenerateClient(sh, R, mode)
		sr := <-ch
		if sr.err != nil {
			return nil, nil, fmt.Errorf("server: %w", sr.err)
		}
		if cerr != nil {
			return nil, nil, fmt.Errorf("client: %w", cerr)
		}
		return sr.U, V, nil
	}
}

// SecureMLMatmul returns the SecureML-style bitwise OT-triplet baseline.
func SecureMLMatmul() MatmulFunc {
	return func(rg ring.Ring, W []int64, m, n int, R *ring.Mat, seed uint64) (*ring.Mat, *ring.Mat, error) {
		serverConn, clientConn := transport.Pipe()
		type res struct {
			U   *ring.Mat
			err error
		}
		ch := make(chan res, 1)
		go func() {
			srv, err := baseline.NewSecureMLServer(serverConn, rg, 7, prg.New(prg.SeedFromInt(2*seed+1)))
			if err != nil {
				ch <- res{nil, err}
				return
			}
			U, err := srv.GenerateServer(W, m, n, R.Cols)
			ch <- res{U, err}
		}()
		cli, err := baseline.NewSecureMLClient(clientConn, rg, 7, prg.New(prg.SeedFromInt(2*seed+2)))
		if err != nil {
			clientConn.Close()
			<-ch
			return nil, nil, err
		}
		V, cerr := cli.GenerateClient(m, R)
		sr := <-ch
		if sr.err != nil {
			return nil, nil, fmt.Errorf("server: %w", sr.err)
		}
		if cerr != nil {
			return nil, nil, fmt.Errorf("client: %w", cerr)
		}
		return sr.U, V, nil
	}
}

// MiniONNMatmul returns the Paillier-based MiniONN baseline. keyBits
// sizes the (test-only) modulus; 512 keeps the sweep fast.
func MiniONNMatmul(keyBits int) MatmulFunc {
	return func(rg ring.Ring, W []int64, m, n int, R *ring.Mat, seed uint64) (*ring.Mat, *ring.Mat, error) {
		serverConn, clientConn := transport.Pipe()
		type res struct {
			U   *ring.Mat
			err error
		}
		ch := make(chan res, 1)
		go func() {
			srv, err := baseline.NewMiniONNServer(serverConn, rg, prg.New(prg.SeedFromInt(2*seed+1)))
			if err != nil {
				ch <- res{nil, err}
				return
			}
			U, err := srv.GenerateServer(W, m, n, R.Cols)
			ch <- res{U, err}
		}()
		cli, err := baseline.NewMiniONNClient(clientConn, rg, keyBits, prg.New(prg.SeedFromInt(2*seed+2)))
		if err != nil {
			clientConn.Close()
			<-ch
			return nil, nil, err
		}
		V, cerr := cli.GenerateClient(m, R)
		sr := <-ch
		if sr.err != nil {
			return nil, nil, fmt.Errorf("server: %w", sr.err)
		}
		if cerr != nil {
			return nil, nil, fmt.Errorf("client: %w", cerr)
		}
		return sr.U, V, nil
	}
}

// QuotientMatmul returns the QUOTIENT ternary COT baseline. It is
// vector-only (o = 1) and requires W in {-1, 0, 1}.
func QuotientMatmul() MatmulFunc {
	return func(rg ring.Ring, W []int64, m, n int, R *ring.Mat, seed uint64) (*ring.Mat, *ring.Mat, error) {
		if R.Cols != 1 {
			return nil, nil, fmt.Errorf("quotient backend is vector-only, got o=%d", R.Cols)
		}
		serverConn, clientConn := transport.Pipe()
		type res struct {
			u   ring.Vec
			err error
		}
		ch := make(chan res, 1)
		go func() {
			srv, err := baseline.NewQuotientServer(serverConn, rg, 7, prg.New(prg.SeedFromInt(2*seed+1)))
			if err != nil {
				ch <- res{nil, err}
				return
			}
			u, err := srv.GenerateServer(W, m, n)
			ch <- res{u, err}
		}()
		cli, err := baseline.NewQuotientClient(clientConn, rg, 7, prg.New(prg.SeedFromInt(2*seed+2)))
		if err != nil {
			clientConn.Close()
			<-ch
			return nil, nil, err
		}
		v, cerr := cli.GenerateClient(m, ring.Vec(R.Data))
		sr := <-ch
		if sr.err != nil {
			return nil, nil, fmt.Errorf("server: %w", sr.err)
		}
		if cerr != nil {
			return nil, nil, fmt.Errorf("client: %w", cerr)
		}
		return &ring.Mat{Rows: m, Cols: 1, Data: sr.u}, &ring.Mat{Rows: m, Cols: 1, Data: v}, nil
	}
}

// CheckMatmul is the shared oracle: it runs the backend and demands
// that the shares reconstruct to the plaintext product, U + V == W*R
// over the ring, element by element.
func CheckMatmul(run MatmulFunc, rg ring.Ring, W []int64, m, n int, R *ring.Mat, seed uint64) error {
	U, V, err := run(rg, W, m, n, R, seed)
	if err != nil {
		return err
	}
	Wm := ring.NewMat(m, n)
	for i, w := range W {
		Wm.Data[i] = rg.FromSigned(w)
	}
	want := rg.MulMat(Wm, R)
	got := rg.AddMat(U, V)
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("share shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			return fmt.Errorf("U+V mismatch at %d: got %d, want %d (m=%d n=%d o=%d seed=%d)",
				i, got.Data[i], want.Data[i], m, n, R.Cols, seed)
		}
	}
	return nil
}
