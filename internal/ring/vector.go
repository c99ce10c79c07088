package ring

import "fmt"

// Vec is a vector of ring elements. The ring it belongs to is carried by
// the operations, not the data, so a Vec can be reinterpreted in a smaller
// ring by reducing.
type Vec []Elem

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// AddVec returns a+b elementwise. It panics on length mismatch: share
// vectors of different layers must never be mixed.
func (r Ring) AddVec(a, b Vec) Vec {
	mustSameLen(len(a), len(b))
	out := make(Vec, len(a))
	for i := range a {
		out[i] = (a[i] + b[i]) & r.mask
	}
	return out
}

// AddVecInPlace sets a[i] += b[i] mod 2^l.
func (r Ring) AddVecInPlace(a, b Vec) {
	mustSameLen(len(a), len(b))
	for i := range a {
		a[i] = (a[i] + b[i]) & r.mask
	}
}

// SubVec returns a-b elementwise.
func (r Ring) SubVec(a, b Vec) Vec {
	mustSameLen(len(a), len(b))
	out := make(Vec, len(a))
	for i := range a {
		out[i] = (a[i] - b[i]) & r.mask
	}
	return out
}

// EqualVec reports elementwise equality after reduction.
func (r Ring) EqualVec(a, b Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i]&r.mask != b[i]&r.mask {
			return false
		}
	}
	return true
}

// Mat is a dense row-major matrix of ring elements.
type Mat struct {
	Rows, Cols int
	Data       Vec // len Rows*Cols, row-major
}

// NewMat returns a zero Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("ring: invalid matrix shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make(Vec, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) Elem { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v Elem) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Mat) Row(i int) Vec { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// MulMat returns a . b mod 2^l.
func (r Ring) MulMat(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("ring: matmul shape mismatch %dx%d . %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMat(a.Rows, b.Cols)
	r.MulMatRows(a, b, out, 0, a.Rows)
	return out
}

// MulMatRows computes rows [lo, hi) of the product a . b into the
// preallocated a.Rows x b.Cols matrix out. Disjoint row ranges touch
// disjoint slices of out, so ranges may run concurrently — this is the
// row-sliced kernel behind the parallel matmul in internal/core.
func (r Ring) MulMatRows(a, b, out *Mat, lo, hi int) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("ring: matmul shape mismatch %dx%d . %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("ring: matmul output is %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				orow[j] += av * brow[j]
			}
		}
		for j := range orow {
			orow[j] &= r.mask
		}
	}
}

// AddMat returns a+b elementwise.
func (r Ring) AddMat(a, b *Mat) *Mat {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("ring: matrix add shape mismatch")
	}
	return &Mat{Rows: a.Rows, Cols: a.Cols, Data: r.AddVec(a.Data, b.Data)}
}

// EqualMat reports equality of shape and (reduced) contents.
func (r Ring) EqualMat(a, b *Mat) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && r.EqualVec(a.Data, b.Data)
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("ring: vector length mismatch %d vs %d", a, b))
	}
}
