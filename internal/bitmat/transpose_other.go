//go:build !amd64

package bitmat

// kernelRows is the height of the block step: off amd64 the delta-swap
// transpose64 (which every architecture compiles, as the tests' oracle
// for the amd64 kernel).
const kernelRows = 64

func kernelStep(out, m *Matrix, rb, colBlocks int) { transpose64Rows(out, m, rb, colBlocks) }
