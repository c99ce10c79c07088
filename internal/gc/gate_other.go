//go:build !amd64

package gc

// Off amd64 prg.Perm has no round keys to give, so the Go steps run every
// gate and these are never called.

func garblePairKernel(*[11 * 16]byte, *[garblePair]wire, *[garblePair]wire, *[garblePair]wire, *wire, uint64, uint64, *byte) {
	panic("gc: no gate kernel on this architecture")
}

func evalQuadKernel(*[11 * 16]byte, *[evalQuad]wire, *[evalQuad]wire, *[evalQuad]wire, uint64, uint64, *byte) {
	panic("gc: no gate kernel on this architecture")
}
