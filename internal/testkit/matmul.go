package testkit

import (
	"fmt"

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

// party is one side of a backend: given its end of the pipe and its own
// stream of the run's randomness, it returns its output share.
type party func(conn transport.Conn, rng *prg.PRG) (*ring.Mat, error)

// shares is the one two-party skeleton under every backend: the server
// runs in a goroutine, the client inline. A side that fails closes its
// endpoint, so the other returns instead of waiting for a message that
// will never come.
func shares(seed uint64, server, client party) (U, V *ring.Mat, err error) {
	serverConn, clientConn := transport.Pipe()
	serr := make(chan error, 1)
	go func() {
		var err error
		if U, err = server(serverConn, prg.New(prg.SeedFromInt(2*seed+1))); err != nil {
			serverConn.Close()
		}
		serr <- err
	}()
	V, cerr := client(clientConn, prg.New(prg.SeedFromInt(2*seed+2)))
	if cerr != nil {
		clientConn.Close()
	}
	if err := <-serr; err != nil {
		return nil, nil, fmt.Errorf("server: %w", err)
	}
	if cerr != nil {
		return nil, nil, fmt.Errorf("client: %w", cerr)
	}
	return U, V, nil
}

// ABNN2Matmul returns the paper's 1-out-of-N triplet protocol under the
// given fragmentation scheme and payload mode (OneBatch requires o = 1).
func ABNN2Matmul(scheme quant.Scheme, mode core.Mode) MatmulFunc {
	return func(rg ring.Ring, W []int64, m, n int, R *ring.Mat, seed uint64) (*ring.Mat, *ring.Mat, error) {
		p := core.Params{Ring: rg, Scheme: scheme}
		sh := core.MatShape{M: m, N: n, O: R.Cols}
		return shares(seed,
			func(conn transport.Conn, rng *prg.PRG) (*ring.Mat, error) {
				srv, err := core.NewServerTripletsSeeded(conn, p, 7, rng)
				if err != nil {
					return nil, err
				}
				return srv.GenerateServer(sh, W, mode)
			},
			func(conn transport.Conn, rng *prg.PRG) (*ring.Mat, error) {
				cli, err := core.NewClientTriplets(conn, p, 7, rng)
				if err != nil {
					return nil, err
				}
				return cli.GenerateClient(sh, R, mode)
			})
	}
}

// BaselineMatmul returns comparison backend b — SecureML's bitwise COT
// triplets, MiniONN over a Paillier key of keyBits (0 = the default; 512
// keeps the sweep fast), QUOTIENT's ternary COT gadget, which is
// vector-only and needs W in {-1, 0, 1} — run the way a scheduled session
// runs it: through the triplet generators' own dispatch, the lazily-run
// set-up included.
func BaselineMatmul(b core.BackendID, keyBits int) MatmulFunc {
	return func(rg ring.Ring, W []int64, m, n int, R *ring.Mat, seed uint64) (*ring.Mat, *ring.Mat, error) {
		// Params wants a session scheme; no layer runs under it here.
		p := core.Params{Ring: rg, Scheme: quant.Binary(), MiniONNBits: keyBits}
		sh := core.MatShape{M: m, N: n, O: R.Cols}
		return shares(seed,
			func(conn transport.Conn, rng *prg.PRG) (*ring.Mat, error) {
				srv, err := core.OpenServerTriplets(conn, p, 7, rng)
				if err != nil {
					return nil, err
				}
				return srv.GenerateBaseline(b, sh, W)
			},
			func(conn transport.Conn, rng *prg.PRG) (*ring.Mat, error) {
				cli, err := core.OpenClientTriplets(conn, p, 7, rng)
				if err != nil {
					return nil, err
				}
				return cli.GenerateBaseline(b, sh, R)
			})
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
