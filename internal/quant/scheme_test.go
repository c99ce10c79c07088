package quant

import (
	"fmt"
	"math"
	"slices"
	"strings"
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
		Quotient(),
	}
	for _, s := range schemes {
		min, max := s.Range()
		for w := min; w <= max; w++ {
			frags, err := s.AppendDecompose(nil, w)
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
		{Quotient(), 2},
		{Quotient(), -2},
		{NewBitScheme(true, 2, 2), 8},
		{NewBitScheme(true, 2, 2), -9},
	}
	for _, c := range cases {
		if _, err := c.s.AppendDecompose(nil, c.w); err == nil {
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
		frags, err := sch.AppendDecompose(nil, min)
		if err != nil || recompose(sch, frags) != min {
			t.Errorf("Parse(%q): min roundtrip failed", s)
		}
		frags, err = sch.AppendDecompose(nil, max)
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
	// Widths over 8 and totals over 32 are errors, not NewBitScheme panics:
	// a plan's scheme overrides are peer-sent text.
	bad := []string{"", "8", "8(2,2)", "8(2,2,2,x)", "(2,2)", "8[2,2,2,2]", "9(9)", "40(8,8,8,8,8)"}
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
		frags, err := s.AppendDecompose(nil, w)
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
	ws := []int64{0, 1, -1, 1}
	cs, err := AppendChoices(Ternary(), nil, ws, 0, len(ws))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 1}
	if !slices.Equal(cs, want) {
		t.Errorf("choices %v, want %v", cs, want)
	}
	if _, err := AppendChoices(Ternary(), nil, []int64{0, 7}, 0, 2); err == nil {
		t.Error("out-of-range weight accepted")
	}
}

// TestDecomposeAllFlat: weight j's fragments at j*Gamma(), equal to
// AppendDecompose's, whether the weights are appended in one call or one
// at a time; an out-of-range weight is refused by its index in the layer.
func TestDecomposeAllFlat(t *testing.T) {
	for _, s := range []Scheme{Uniform(2, 4), NewBitScheme(false, 3, 1), Uniform(4, 4), Quotient(), SecureML(64)} {
		lo, hi := s.Range()
		ws := []int64{lo, hi, 0, 1, -1 & hi, lo, 3 & hi, hi, 0, lo + 1<<12&(hi-lo), lo, 1 + 1<<12&hi, 1}
		cs, err := AppendChoices(s, nil, ws, 0, len(ws))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		var one []int
		for j := range ws {
			if one, err = AppendChoices(s, one, ws, j, j+1); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
		}
		if len(cs) != len(ws)*s.Gamma() || !slices.Equal(one, cs) {
			t.Fatalf("%s: %d choices for %d weights, %d one at a time", s.Name(), len(cs), len(ws), len(one))
		}
		for j, w := range ws {
			want, _ := s.AppendDecompose(nil, w)
			if got := cs[j*s.Gamma() : (j+1)*s.Gamma()]; !slices.Equal(got, want) {
				t.Errorf("%s weight %d (%d): %v, want %v", s.Name(), j, w, got, want)
			}
		}
		if hi == math.MaxInt64 {
			continue // every int64 is in range
		}
		_, err = AppendChoices(s, nil, []int64{0, hi, hi + 1}, 1, 3)
		if err == nil || !strings.Contains(err.Error(), "quant: weight 2:") {
			t.Errorf("%s: weight %d: err = %v, want the refusal of weight 2", s.Name(), hi+1, err)
		}
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

// TestCandidateZeroIsZero: Value(i, 0) == 0 at every fragment of every
// scheme Parse accepts up to eta = 8 — each signed and unsigned partition
// of eta into fragment widths — and of ternary and binary. The triplet
// generator sends no ciphertext for candidate 0 (Scheme's doc), so a
// scheme that broke this would give wrong products, not an error.
func TestCandidateZeroIsZero(t *testing.T) {
	names := []string{"ternary", "binary"}
	var partitions func(eta int, widths []string)
	partitions = func(eta int, widths []string) {
		if eta == 0 {
			total := 0
			for _, w := range widths {
				total += int(w[0] - '0')
			}
			body := fmt.Sprintf("%d(%s)", total, strings.Join(widths, ","))
			names = append(names, body, "u"+body)
			return
		}
		for w := 1; w <= eta; w++ {
			partitions(eta-w, append(widths, fmt.Sprint(w)))
		}
	}
	for eta := 1; eta <= 8; eta++ {
		partitions(eta, nil)
	}
	if len(names) != 2+2*255 {
		t.Fatalf("%d schemes, want 2 + 2*255 (the compositions of 1..8)", len(names))
	}
	for _, name := range names {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		for i := 0; i < s.Gamma(); i++ {
			if v := s.Value(i, 0); v != 0 {
				t.Errorf("%s: Value(%d, 0) = %d, want 0", name, i, v)
			}
		}
	}
}

// TestBaselineSchemes: SecureML's and QUOTIENT's schemes keep the Scheme
// contract, SecureML's modulo 2^l up to its 64 fragments, and neither
// name parses, so a plan cannot spell either as an ABNN2 override.
func TestBaselineSchemes(t *testing.T) {
	for _, s := range []Scheme{SecureML(33), SecureML(64), Quotient()} {
		if _, err := Parse(s.Name()); err == nil {
			t.Errorf("Parse(%q) accepted a baseline's scheme", s.Name())
		}
		for i := 0; i < s.Gamma(); i++ {
			if n := s.FragmentN(i); n != 2 {
				t.Errorf("%s: fragment %d has N = %d, want 2", s.Name(), i, n)
			}
			if v := s.Value(i, 0); v != 0 {
				t.Errorf("%s: Value(%d, 0) = %d, want 0", s.Name(), i, v)
			}
		}
	}
	ws := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 255, -0x123456789abcdef}
	for _, l := range []uint{1, 8, 33, 64} {
		s := SecureML(l)
		if s.Gamma() != int(l) {
			t.Errorf("SecureML(%d) has %d fragments", l, s.Gamma())
		}
		mask := ^uint64(0) >> (64 - l)
		for _, w := range ws {
			frags, err := s.AppendDecompose(nil, w)
			if err != nil {
				t.Fatalf("SecureML(%d): decompose(%d): %v", l, w, err)
			}
			if got := uint64(recompose(s, frags)); got&mask != uint64(w)&mask {
				t.Errorf("SecureML(%d): recompose(%d) = %d, not w modulo 2^%d", l, w, int64(got), l)
			}
		}
	}
}
