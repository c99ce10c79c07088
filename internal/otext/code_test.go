package otext

import (
	"bytes"
	"testing"

	"abnn2/internal/bitmat"
	"abnn2/internal/prg"
)

// referenceColumns is the receiver's code matrix the way Extend once
// built it: row j is C(choices[j]) by Encode, rows up to the next
// multiple of 8 are padding and choice 0, and the matrix is transposed so
// that row i is column i. words holds the code's codewords.
func referenceColumns(code Code, words [][]byte, choices []int) *bitmat.Matrix {
	rows := bitmat.New((len(choices)+7)&^7, code.WidthBits())
	for j := range rows.Rows {
		c := 0
		if j < len(choices) {
			c = choices[j]
		}
		copy(rows.Row(j), words[c])
	}
	return bitmat.Transpose(rows)
}

// planeColumns builds the same matrix the way Extend does, from the
// choices' bit-planes.
func planeColumns(code Code, choices []int) (*bitmat.Matrix, error) {
	mBytes := (len(choices) + 7) / 8
	planes, err := code.choicePlanes(choices, mBytes)
	if err != nil {
		return nil, err
	}
	cols := bitmat.New(code.WidthBits(), 8*mBytes)
	for i := range cols.Rows {
		code.xorColumn(cols.Row(i), i, planes)
	}
	return cols, nil
}

// TestCodeColumnsMatchEncode holds the plane-built columns to the encoded
// and transposed code matrix for every N and for round sizes covering
// every m mod 8 and both sides of a 64-row block, and requires a choice
// outside [0, N) to be rejected.
func TestCodeColumnsMatchEncode(t *testing.T) {
	for n := 2; n <= 256; n++ {
		code, words := WalshHadamardCode(n), codewords(n)
		g := prg.New(prg.SeedFromInt(uint64(n)))
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65, 4097} {
			choices := make([]int, m)
			for j := range choices {
				choices[j] = g.Intn(n)
			}
			choices[m-1] = n - 1
			got, err := planeColumns(code, choices)
			if err != nil {
				t.Fatalf("n=%d m=%d: %v", n, m, err)
			}
			if want := referenceColumns(code, words, choices); !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("n=%d m=%d: plane-built columns differ from the encoded code matrix", n, m)
			}
		}
		for _, bad := range []int{n, -1} {
			if _, err := planeColumns(code, []int{0, bad}); err == nil {
				t.Fatalf("n=%d: choice %d accepted", n, bad)
			}
		}
	}
}

// FuzzCodeColumnsMatchEncode draws N from the first byte and one choice
// in [0, N) from each further byte, and holds the plane-built columns to
// the encoded and transposed code matrix.
func FuzzCodeColumnsMatchEncode(f *testing.F) {
	f.Add([]byte{0, 1})
	f.Add([]byte{1, 0, 1, 2, 2, 1, 0, 1, 2})
	f.Add(append([]byte{2}, bytes.Repeat([]byte{3, 1, 2}, 22)...))
	f.Add(append([]byte{254}, bytes.Repeat([]byte{0xFF, 0x80, 0x7F, 1}, 17)...))
	f.Add(append([]byte{99}, bytes.Repeat([]byte{0x55}, 64)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1+1<<14 {
			t.Skip()
		}
		n := 2 + int(data[0])%255
		choices := make([]int, len(data)-1)
		for j, b := range data[1:] {
			choices[j] = int(b) % n
		}
		code := WalshHadamardCode(n)
		got, err := planeColumns(code, choices)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceColumns(code, codewords(n), choices); !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("n=%d m=%d: plane-built columns differ from the encoded code matrix", n, len(choices))
		}
	})
}
