// Package bitmat implements packed bit matrices and their transpose, the
// data-movement core of IKNP-style OT extension: the receiver builds an
// m x w bit matrix column-wise (w = code width: 128 for IKNP, 192 to 256
// for KK13) and both parties need it row-wise, or vice versa.
package bitmat

import (
	"encoding/binary"
	"fmt"

	"abnn2/internal/par"
)

// Matrix is a packed bit matrix with Rows rows of Cols bits each. Row i
// occupies Data[i*Stride : i*Stride+Stride]; bit j of row i is
// Data[i*Stride + j/8] >> (j%8) & 1 (LSB-first within each byte).
// Cols must be a multiple of 8 so rows are byte-aligned.
type Matrix struct {
	Rows, Cols int
	Stride     int // bytes per row = Cols/8
	Data       []byte
}

// New returns a zeroed Rows x Cols bit matrix. Cols must be a positive
// multiple of 8.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols <= 0 || cols%8 != 0 {
		panic(fmt.Sprintf("bitmat: invalid shape %dx%d (cols must be positive multiple of 8)", rows, cols))
	}
	stride := cols / 8
	return &Matrix{Rows: rows, Cols: cols, Stride: stride, Data: make([]byte, rows*stride)}
}

// Resized returns a rows x cols matrix whose contents are unspecified,
// reusing m's storage when it is large enough; m may be nil. It serves
// scratch matrices that are wholly overwritten on every use.
func Resized(m *Matrix, rows, cols int) *Matrix {
	if m == nil || rows < 0 || cols <= 0 || cols%8 != 0 || cap(m.Data) < rows*cols/8 {
		return New(rows, cols) // which rejects a bad shape
	}
	m.Rows, m.Cols, m.Stride, m.Data = rows, cols, cols/8, m.Data[:rows*cols/8]
	return m
}

// Row returns a view of row i.
func (m *Matrix) Row(i int) []byte { return m.Data[i*m.Stride : (i+1)*m.Stride] }

// Bit returns bit (i, j).
func (m *Matrix) Bit(i, j int) byte {
	return (m.Data[i*m.Stride+j/8] >> (uint(j) % 8)) & 1
}

// SetBit sets bit (i, j) to v (0 or 1).
func (m *Matrix) SetBit(i, j int, v byte) {
	idx := i*m.Stride + j/8
	mask := byte(1) << (uint(j) % 8)
	if v&1 == 1 {
		m.Data[idx] |= mask
	} else {
		m.Data[idx] &^= mask
	}
}

// Transpose returns the Cols x Rows transpose of m. The output has
// RowsOut = m.Cols and ColsOut = m.Rows rounded up to a byte boundary in
// storage; callers must treat bits beyond m.Rows in each output row as
// padding (they are zero). For the OT extensions in this repo, m.Rows is
// always padded to a multiple of 8 by the caller, so no slack bits exist
// in practice.
func Transpose(m *Matrix) *Matrix { return TransposePar(m, 1) }

// TransposePar is Transpose with the block loop split across the shared
// worker pool; the result is identical for any worker count.
// workers <= 0 means GOMAXPROCS.
func TransposePar(m *Matrix, workers int) *Matrix {
	out := New(m.Cols, max(8, (m.Rows+7)&^7))
	TransposeInto(out, m, workers)
	return out
}

// TransposeInto is TransposePar into a caller-owned matrix of the shape
// TransposePar returns, every byte of which it overwrites, so a matrix
// kept across calls needs no clearing.
//
// The matrix is cut into 64x64 bit blocks, each transposed in registers
// by transpose64. Rows and column bytes beyond the last whole block (the
// OT extensions pad their row count to 8, not 64, because the padded
// count is what crosses the wire) go through the 8x8 kernel. Block
// (rb, cb) writes only bytes [8*rb, 8*rb+8) of output rows [64*cb,
// 64*cb+64), so the workers' ranges are disjoint.
func TransposeInto(out, m *Matrix, workers int) {
	if out.Rows != m.Cols || out.Cols != max(8, (m.Rows+7)&^7) {
		panic(fmt.Sprintf("bitmat: transpose of %dx%d into %dx%d", m.Rows, m.Cols, out.Rows, out.Cols))
	}
	rowBlocks, colBlocks := m.Rows/64, m.Stride/8
	par.Map(workers, rowBlocks*colBlocks, func(b int) {
		rb, cb := b/colBlocks, b%colBlocks
		var blk [64]uint64
		off := rb*64*m.Stride + cb*8
		for k := range blk {
			blk[k] = binary.LittleEndian.Uint64(m.Data[off:])
			off += m.Stride
		}
		transpose64(&blk)
		off = cb*64*out.Stride + rb*8
		for k := range blk {
			binary.LittleEndian.PutUint64(out.Data[off:], blk[k])
			off += out.Stride
		}
	})
	// What the 64x64 blocks leave: column bytes past the last whole
	// block, then rows past it.
	for rb8 := 0; rb8 < rowBlocks*8; rb8++ {
		for cb := colBlocks * 8; cb < m.Stride; cb++ {
			transposeBlock8(out, m, rb8, cb)
		}
	}
	for rb8 := rowBlocks * 8; rb8*8 < m.Rows; rb8++ {
		for cb := 0; cb < m.Stride; cb++ {
			transposeBlock8(out, m, rb8, cb)
		}
	}
	if m.Rows == 0 {
		clear(out.Data)
	}
}

// transposeBlock8 transposes the 8x8 bit block at rows [8*rb, 8*rb+8),
// column byte cb; rows past the end of m read as zero.
func transposeBlock8(out, m *Matrix, rb, cb int) {
	// Gather 8 bytes: one byte (8 column bits) from each of 8 rows.
	var block uint64
	for k := 0; k < 8 && rb*8+k < m.Rows; k++ {
		block |= uint64(m.Data[(rb*8+k)*m.Stride+cb]) << (8 * uint(k))
	}
	block = transpose8x8(block)
	// Scatter: byte k of the transposed block holds the bits of output
	// row cb*8+k at output column byte rb.
	for k := 0; k < 8; k++ {
		out.Data[(cb*8+k)*out.Stride+rb] = byte(block >> (8 * uint(k)))
	}
}

// transpose64 transposes a 64x64 bit block in place (row k = a[k],
// LSB-first columns): six delta-swap stages, stage j exchanging the
// off-diagonal j x j sub-blocks of every 2j x 2j tile.
func transpose64(a *[64]uint64) {
	swapStage(a, 32, 0x00000000FFFFFFFF)
	swapStage(a, 16, 0x0000FFFF0000FFFF)
	swapStage(a, 8, 0x00FF00FF00FF00FF)
	swapStage(a, 4, 0x0F0F0F0F0F0F0F0F)
	swapStage(a, 2, 0x3333333333333333)
	swapStage(a, 1, 0x5555555555555555)
}

// swapStage exchanges, for every row pair (k, k+j) with bit j of k clear,
// the columns of row k selected by mask<<j with the columns of row k+j
// selected by mask. It is small enough to inline, which turns j and mask
// into constants at each of transpose64's six call sites.
func swapStage(a *[64]uint64, j uint, mask uint64) {
	for k := uint(0); k < 64; k = (k + j + 1) &^ j {
		t := (a[k]>>j ^ a[k+j]) & mask
		a[k] ^= t << j
		a[k+j] ^= t
	}
}

// transpose8x8 transposes an 8x8 bit block packed row-major into a uint64
// (row k = byte k, LSB-first columns) using the classic delta-swap network.
func transpose8x8(x uint64) uint64 {
	// Swap 1x1 blocks within 2x2 tiles.
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x = x ^ t ^ (t << 7)
	// Swap 2x2 blocks within 4x4 tiles.
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x = x ^ t ^ (t << 14)
	// Swap 4x4 blocks within the 8x8 tile.
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	x = x ^ t ^ (t << 28)
	return x
}
