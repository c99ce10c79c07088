package bitmat

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// bitTranspose is the reference: Transpose's shape, filled bit by bit.
func bitTranspose(m *Matrix) *Matrix {
	out := New(m.Cols, max(8, (m.Rows+7)&^7))
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.SetBit(j, i, m.Bit(i, j))
		}
	}
	return out
}

// checkKernel holds TransposeInto (on amd64 the SSE2 kernel) to the
// portable delta-swap step and to the bit reference on one input, each
// output written over garbage so a byte left unwritten shows.
func checkKernel(t *testing.T, rng *rand.Rand, m *Matrix) {
	t.Helper()
	want := bitTranspose(m)
	got := randomMatrix(rng, want.Rows, want.Cols)
	TransposeInto(got, m, 1)
	portable := randomMatrix(rng, want.Rows, want.Cols)
	transposeBlocks(portable, m, 1, 64, transpose64Rows)
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("%dx%d: kernel differs from the bit reference", m.Rows, m.Cols)
	}
	if !bytes.Equal(portable.Data, want.Data) {
		t.Fatalf("%dx%d: delta-swap step differs from the bit reference", m.Rows, m.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		for j := m.Rows; j < got.Cols; j++ {
			if got.Bit(i, j) != 0 {
				t.Fatalf("%dx%d: padding bit (%d,%d) set", m.Rows, m.Cols, i, j)
			}
		}
	}
}

// TestTransposeKernelCodeWidths covers every KK13 code width — 224, 240
// and 248 leave an 8-row tail past the kernel's 16-row groups — by the
// padded OT counts of a short round, one past a 64-column group, a full
// triplet round and one past it.
func TestTransposeKernelCodeWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, w := range []int{128, 192, 224, 240, 248, 256} {
		for _, mPad := range []int{8, 64, 72, 4096, 4104} {
			t.Run(fmt.Sprintf("%dx%d", w, mPad), func(t *testing.T) {
				checkKernel(t, rng, randomMatrix(rng, w, mPad))
			})
		}
	}
}

func FuzzTransposeKernelMatchesPortable(f *testing.F) {
	f.Add(uint16(192), uint16(4096), int64(1))
	f.Add(uint16(248), uint16(4104), int64(2))
	f.Add(uint16(224), uint16(72), int64(3))
	f.Add(uint16(16), uint16(64), int64(4))
	f.Add(uint16(24), uint16(136), int64(5))
	f.Add(uint16(0), uint16(8), int64(6))
	f.Add(uint16(300), uint16(4200), int64(7))
	f.Fuzz(func(t *testing.T, rows, cols uint16, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, int(rows)%301, 8+int(cols)%525*8)
		checkKernel(t, rng, m)
	})
}
