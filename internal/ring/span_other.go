//go:build !amd64

package ring

// Off amd64 the Go loops run every width and these are never called.
const spanKernels = false

func putMulSub32(_, _ []byte, _, _, _ []Elem, _ uint64) { panic("ring: no span kernel") }
func addDecoded32([]Elem, []byte, uint64)               { panic("ring: no span kernel") }
func subDecoded32([]Elem, []byte, uint64)               { panic("ring: no span kernel") }
