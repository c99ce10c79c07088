package ring

// spanKernels: on amd64 spans of four or more elements at the 4-byte ring
// widths (l = 25..32) run the SSE2 span kernels. SSE2 is part of amd64,
// so nothing gates them. Each writes what its Go loop writes, bits above
// l included.
const spanKernels = true

// putMulSub32 writes, for each cs[k], (c·v[i] − s[i]) ⊕ pad at 4 bytes
// each over dst's span k, pads read at the same offsets. len(s) is
// len(v), and dst and pads hold len(cs) spans.
//
//go:noescape
func putMulSub32(dst, pads []byte, cs, v, s []Elem, mask uint64)

// addDecoded32 sets v[i] = (v[i] + the 4 bytes at src[4i:]) & mask;
// len(src) is at least 4·len(v).
//
//go:noescape
func addDecoded32(v []Elem, src []byte, mask uint64)

// subDecoded32 is addDecoded32 with subtraction.
//
//go:noescape
func subDecoded32(v []Elem, src []byte, mask uint64)
