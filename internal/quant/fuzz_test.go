package quant

import "testing"

// FuzzParse hammers the scheme parser: it must never panic, and anything
// it accepts must be internally consistent (decompose/recompose
// round-trips over the whole range).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{"binary", "ternary", "8(2,2,2,2)", "u4(1,3)", "3(2,1)", "", "8(", "9(2,2)", "x(1)", "9(9)", "40(8,8,8,8,8)"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		scheme, err := Parse(s)
		if err != nil {
			return
		}
		min, max := scheme.Range()
		if min > max {
			t.Fatalf("%q: inverted range [%d,%d]", s, min, max)
		}
		// Sample the range edges plus zero if representable.
		for _, w := range []int64{min, max, 0} {
			if w < min || w > max {
				continue
			}
			frags, err := scheme.AppendDecompose(nil, w)
			if err != nil {
				t.Fatalf("%q: decompose(%d): %v", s, w, err)
			}
			var sum int64
			for i, fr := range frags {
				if fr < 0 || fr >= scheme.FragmentN(i) {
					t.Fatalf("%q: fragment %d out of range", s, i)
				}
				sum += scheme.Value(i, fr)
			}
			if sum != w {
				t.Fatalf("%q: recompose(%d) = %d", s, w, sum)
			}
		}
	})
}
