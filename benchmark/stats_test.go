package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The 90th percentile is withheld until ten samples lie beyond it.
func TestP90WithheldBelow100Samples(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 99; i++ {
		xs = append(xs, float64(i))
	}
	if v, ok := p90(xs); ok || v != 0 {
		t.Fatalf("p90 of 99 samples = %v, %v; want it withheld", v, ok)
	}
	xs = append(xs, 100)
	v, ok := p90(xs)
	if !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the p90, want 10", beyond)
	}
}
