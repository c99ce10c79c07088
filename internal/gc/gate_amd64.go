package gc

// garblePairKernel garbles one AND gate in two windows, as two calls of
// garbling.and's step with one window each would: window j's zero labels
// a[j], b[j], tweak t+j*dt, its table rows at rows + j*dt*LabelSize and
// its output zero label into o[j], under round keys rk and offset r.
//
//go:noescape
func garblePairKernel(rk *[11 * 16]byte, a, b, o *[garblePair]wire, r *wire, t, dt uint64, rows *byte)

// evalQuadKernel evaluates one AND gate in four windows, as
// evaluating.and does, laid out as garblePairKernel's arguments.
//
//go:noescape
func evalQuadKernel(rk *[11 * 16]byte, a, b, o *[evalQuad]wire, t, dt uint64, rows *byte)
