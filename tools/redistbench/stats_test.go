package main

import (
	"math"
	"testing"
)

// TestTailPercentile checks the tail rule: the highest of p99.9, p99, p90
// and p75 with at least ten samples beyond it, else the median.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {9, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the benchmark's acceptance check
// uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.5, 0.1, 0.9, 0.3, 0.7}, [3]float64{0.2, 0.5, 0.8}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {90, 3.7}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", []float64{100, 101, 100, 99, 100}, false, "ok"},
		{"slower", []float64{120, 121, 119, 120, 122}, false, "regressed"},
		{"faster", []float64{80, 81, 79, 80, 82}, false, "ok"},
		{"lower throughput", []float64{80, 81, 79, 80, 82}, true, "regressed"},
		{"noisy", []float64{70, 130, 100, 60, 140}, false, "unresolved"},
		{"noisy but every run better", []float64{50, 90, 60, 55, 98}, false, "ok"},
	} {
		if got := judge(base, c.b, c.higher, 0.1, true).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := judge(base, base, false, 0, false).verdict; got != "info" {
		t.Errorf("a metric without a bound: verdict %q, want info", got)
	}
}
