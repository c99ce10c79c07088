package bitmat

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	rng.Read(m.Data)
	return m
}

func TestSetGetBit(t *testing.T) {
	m := New(3, 16)
	m.SetBit(1, 9, 1)
	if m.Bit(1, 9) != 1 {
		t.Fatal("bit not set")
	}
	if m.Bit(1, 8) != 0 || m.Bit(0, 9) != 0 || m.Bit(2, 9) != 0 {
		t.Fatal("neighbouring bits disturbed")
	}
	m.SetBit(1, 9, 0)
	if m.Bit(1, 9) != 0 {
		t.Fatal("bit not cleared")
	}
}

func TestTransposeSmallKnown(t *testing.T) {
	m := New(2, 8)
	m.SetBit(0, 3, 1)
	m.SetBit(1, 5, 1)
	tr := Transpose(m)
	if tr.Rows != 8 {
		t.Fatalf("transposed rows = %d", tr.Rows)
	}
	if tr.Bit(3, 0) != 1 || tr.Bit(5, 1) != 1 {
		t.Fatal("transposed bits missing")
	}
	count := 0
	for i := 0; i < tr.Rows; i++ {
		for j := 0; j < m.Rows; j++ {
			count += int(tr.Bit(i, j))
		}
	}
	if count != 2 {
		t.Fatalf("transposed weight %d, want 2", count)
	}
}

func TestTransposeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][2]int{{8, 8}, {16, 128}, {128, 16}, {64, 256}, {40, 24}, {7, 8}, {129, 128}}
	for _, s := range shapes {
		m := randomMatrix(rng, s[0], s[1])
		tr := Transpose(m)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if m.Bit(i, j) != tr.Bit(j, i) {
					t.Fatalf("shape %v: bit (%d,%d) mismatch", s, i, j)
				}
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 64, 128)
	back := Transpose(Transpose(m))
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.Bit(i, j) != back.Bit(i, j) {
				t.Fatalf("double transpose changed bit (%d,%d)", i, j)
			}
		}
	}
}

func TestTranspose8x8Property(t *testing.T) {
	f := func(x uint64) bool {
		y := transpose8x8(x)
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				if (x>>(8*uint(r)+uint(c)))&1 != (y>>(8*uint(c)+uint(r)))&1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTransposeMatchesBitReference checks the blocked kernels against a
// bit-by-bit transpose on the shapes the OT extensions produce (a padded
// OT count by a code width, and the swapped orientation), chosen to hit
// the 64x64 kernel alone, the 8x8 remainder alone, and both; worker
// counts 1 and 8 must agree byte for byte.
func TestTransposeMatchesBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, rows := range []int{8, 56, 64, 72, 400, 4096} {
		for _, cols := range []int{128, 256} {
			for _, s := range [][2]int{{rows, cols}, {cols, rows}} {
				m := randomMatrix(rng, s[0], s[1])
				want := New(m.Cols, m.Rows)
				for i := 0; i < m.Rows; i++ {
					for j := 0; j < m.Cols; j++ {
						want.SetBit(j, i, m.Bit(i, j))
					}
				}
				for _, workers := range []int{1, 8} {
					got := TransposePar(m, workers)
					if got.Rows != want.Rows || got.Cols != want.Cols || !bytes.Equal(got.Data, want.Data) {
						t.Fatalf("%dx%d workers=%d: differs from the bit-by-bit transpose", s[0], s[1], workers)
					}
				}
			}
		}
	}
}

// TestTransposeIntoOverwrites: a reused output matrix keeps nothing of
// its previous contents, including the padding bits past a row count
// that is not a multiple of 8.
func TestTransposeIntoOverwrites(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, s := range [][2]int{{0, 8}, {3, 8}, {13, 72}, {72, 136}, {200, 256}} {
		m := randomMatrix(rng, s[0], s[1])
		want := Transpose(m)
		out := randomMatrix(rng, want.Rows, want.Cols)
		TransposeInto(out, m, 2)
		if !bytes.Equal(out.Data, want.Data) {
			t.Fatalf("%dx%d: stale bytes survive TransposeInto", s[0], s[1])
		}
	}
}

func TestTranspose64Property(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var a, b [64]uint64
	for k := range a {
		a[k] = rng.Uint64()
	}
	b = a
	transpose64(&b)
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			if (a[r]>>uint(c))&1 != (b[c]>>uint(r))&1 {
				t.Fatalf("bit (%d,%d) not transposed", r, c)
			}
		}
	}
}

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { New(1, 0) },
		func() { New(1, 7) },
		func() { New(-1, 8) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
