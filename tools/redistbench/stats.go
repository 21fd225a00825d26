package main

import (
	"math"
	"sort"
)

// percentile is the p-th percentile of xs, interpolating linearly between
// the closest ranks; NaN when xs is empty. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailPercentile is the highest of p99.9, p99, p90, p75 and p50 that has at
// least ten of n samples beyond it, so a tail is never read from a handful
// of requests. Percentiles are in tenths of a percent to keep the count
// exact.
func tailPercentile(n int) float64 {
	for _, p := range []int{999, 990, 900, 750} {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 50
}

// quartiles returns the three cut points that split xs into four groups,
// computed as Python's statistics.quantiles(xs, n=4) does (the exclusive
// method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
