package bitmat

// kernelRows is the height of the block step: on amd64 the SSE2 movemask
// kernel, which every amd64 CPU runs, so there is no other path here.
const kernelRows = 16

// transpose16 transposes the 16 rows at in (inStride bytes apart) at
// column bytes [0, 8*colBlocks) into output rows [0, 64*colBlocks) at out
// (outStride bytes apart), two bytes each: output row j gets the row-j
// column bit of the 16 input rows. colBlocks must be at least 1.
//
//go:noescape
func transpose16(out *byte, outStride int, in *byte, inStride, colBlocks int)

// kernelStep transposes rows [16*rb, 16*rb+16) of m across colBlocks
// groups of 8 column bytes into bytes 2*rb and 2*rb+1 of out's rows.
func kernelStep(out, m *Matrix, rb, colBlocks int) {
	if colBlocks > 0 {
		transpose16(&out.Data[2*rb], out.Stride, &m.Data[16*rb*m.Stride], m.Stride, colBlocks)
	}
}
