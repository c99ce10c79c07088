package main

import (
	"math"
	"sort"
)

// p90MinSamples is the smallest sample that supports a 90th percentile:
// with 100 samples, ten lie beyond it.
const p90MinSamples = 100

// median returns the middle of xs (the mean of the two middle values for
// an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// p90 returns the nearest-rank 90th percentile, withheld (ok false) when
// fewer than p90MinSamples samples exist.
func p90(xs []float64) (v float64, ok bool) {
	if len(xs) < p90MinSamples {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.9*float64(len(s))))-1], true
}

// quartiles returns min, first quartile, median, third quartile and max
// (nearest rank), nil for an empty slice.
func quartiles(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[int(q*float64(len(s)-1)+0.5)] }
	return []float64{s[0], at(0.25), at(0.5), at(0.75), s[len(s)-1]}
}

// share returns part/whole, 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

const mib = 1 << 20
