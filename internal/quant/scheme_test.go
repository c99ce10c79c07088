package quant

import (
	"testing"
	"testing/quick"
)

// recompose sums fragment values; the core invariant is recompose == w.
func recompose(s Scheme, frags []int) int64 {
	var sum int64
	for i, t := range frags {
		sum += s.Value(i, t)
	}
	return sum
}

func TestDecomposeRecomposeAllSchemes(t *testing.T) {
	schemes := []Scheme{
		Binary(),
		Ternary(),
		NewBitScheme(true, 2, 2, 2, 2),
		NewBitScheme(true, 3, 3, 2),
		NewBitScheme(true, 4, 4),
		NewBitScheme(true, 2, 2, 2),
		NewBitScheme(true, 3, 3),
		NewBitScheme(true, 2, 2),
		NewBitScheme(true, 4),
		NewBitScheme(true, 2, 1),
		NewBitScheme(true, 3),
		NewBitScheme(false, 1, 1, 1, 1, 1, 1, 1, 1),
		OneBit(8, true),
	}
	for _, s := range schemes {
		min, max := s.Range()
		for w := min; w <= max; w++ {
			frags, err := s.Decompose(w)
			if err != nil {
				t.Fatalf("%s: decompose(%d): %v", s.Name(), w, err)
			}
			if len(frags) != s.Gamma() {
				t.Fatalf("%s: %d fragments, want %d", s.Name(), len(frags), s.Gamma())
			}
			for i, f := range frags {
				if f < 0 || f >= s.FragmentN(i) {
					t.Fatalf("%s: fragment %d value %d out of [0,%d)", s.Name(), i, f, s.FragmentN(i))
				}
			}
			if got := recompose(s, frags); got != w {
				t.Fatalf("%s: recompose(%d) = %d", s.Name(), w, got)
			}
		}
	}
}

func TestDecomposeOutOfRange(t *testing.T) {
	cases := []struct {
		s Scheme
		w int64
	}{
		{Binary(), 2},
		{Binary(), -1},
		{Ternary(), 2},
		{NewBitScheme(true, 2, 2), 8},
		{NewBitScheme(true, 2, 2), -9},
	}
	for _, c := range cases {
		if _, err := c.s.Decompose(c.w); err == nil {
			t.Errorf("%s: decompose(%d) accepted", c.s.Name(), c.w)
		}
	}
}

func TestSchemeNames(t *testing.T) {
	cases := map[string]Scheme{
		"binary":     Binary(),
		"ternary":    Ternary(),
		"8(2,2,2,2)": NewBitScheme(true, 2, 2, 2, 2),
		"8(3,3,2)":   NewBitScheme(true, 3, 3, 2),
		"3(2,1)":     NewBitScheme(true, 2, 1),
		"u4(2,2)":    NewBitScheme(false, 2, 2),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Errorf("name = %q, want %q", s.Name(), want)
		}
	}
}

func TestParse(t *testing.T) {
	good := []string{"binary", "ternary", "8(2,2,2,2)", "6(3,3)", "4(2,2)", "3(2,1)", "u8(1,1,1,1,1,1,1,1)"}
	for _, s := range good {
		sch, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		min, max := sch.Range()
		frags, err := sch.Decompose(min)
		if err != nil || recompose(sch, frags) != min {
			t.Errorf("Parse(%q): min roundtrip failed", s)
		}
		frags, err = sch.Decompose(max)
		if err != nil || recompose(sch, frags) != max {
			t.Errorf("Parse(%q): max roundtrip failed", s)
		}
	}
	// Name/Parse must be mutually inverse: models serialise schemes by
	// name, so a scheme whose name parses to a different scheme corrupts
	// the model on reload (this caught the unsigned "u" prefix omission).
	for _, s := range good {
		sch, err := Parse(s)
		if err != nil {
			continue
		}
		back, err := Parse(sch.Name())
		if err != nil {
			t.Errorf("Parse(Name(%q)) = %q failed: %v", s, sch.Name(), err)
			continue
		}
		min, max := sch.Range()
		bmin, bmax := back.Range()
		if bmin != min || bmax != max || back.Gamma() != sch.Gamma() {
			t.Errorf("Parse(Name(%q)): range/gamma changed (%d..%d gamma %d)", s, bmin, bmax, back.Gamma())
		}
	}
	bad := []string{"", "8", "8(2,2)", "8(2,2,2,x)", "(2,2)", "8[2,2,2,2]"}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestUniform(t *testing.T) {
	s := Uniform(2, 4)
	if s.Name() != "8(2,2,2,2)" || s.Gamma() != 4 {
		t.Errorf("Uniform(2,4) = %s gamma %d", s.Name(), s.Gamma())
	}
}

// Property: for the signed 8-bit scheme, decompose/recompose round-trips
// arbitrary in-range weights.
func TestDecomposeProperty(t *testing.T) {
	s := NewBitScheme(true, 3, 3, 2)
	f := func(raw int8) bool {
		w := int64(raw)
		frags, err := s.Decompose(w)
		return err == nil && recompose(s, frags) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizerRoundTrip(t *testing.T) {
	s := NewBitScheme(true, 2, 2, 2, 2) // range [-128, 127]
	q := NewQuantizer(s, 2.0)           // scale = 2/127
	for _, w := range []float64{0, 1.0, -1.0, 1.99, -2.0, 0.015} {
		v := q.Quantize(w)
		back := float64(v) * q.Scale
		if diff := back - w; diff > q.Scale/2+1e-9 || diff < -q.Scale/2-1e-9 {
			t.Errorf("quantize(%v) -> %d -> %v (err %v > scale/2)", w, v, back, diff)
		}
	}
}

func TestQuantizerClamps(t *testing.T) {
	q := NewQuantizer(Ternary(), 1.0)
	if v := q.Quantize(5.0); v != 1 {
		t.Errorf("overflow quantized to %d, want clamp to 1", v)
	}
	if v := q.Quantize(-5.0); v != -1 {
		t.Errorf("underflow quantized to %d, want clamp to -1", v)
	}
}

func TestDecomposeAll(t *testing.T) {
	s := Ternary()
	cs, err := DecomposeAll(s, []int64{0, 1, -1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0}, {1}, {2}, {1}}
	for i := range want {
		if cs[i][0] != want[i][0] {
			t.Errorf("weight %d: choice %d want %d", i, cs[i][0], want[i][0])
		}
	}
	if _, err := DecomposeAll(s, []int64{0, 7}); err == nil {
		t.Error("out-of-range weight accepted")
	}
}

func TestMaxAbs(t *testing.T) {
	if MaxAbs([]float64{-3, 2, 1}) != 3 {
		t.Error("MaxAbs wrong")
	}
	if MaxAbs(nil) != 0 {
		t.Error("MaxAbs(nil) != 0")
	}
}
