package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestSummarize(t *testing.T) {
	got := summarize([]float64{5, 1, 4, 2, 3})
	want := spread{N: 5, Median: 3, Q1: 2, Q3: 4}
	if got != want {
		t.Fatalf("summarize = %+v, want %+v", got, want)
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Fatalf("median of an even sample = %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN, not a number that looks measured")
	}
}

// The reporting rule: a percentile is named only with at least ten samples
// beyond it, and n is always reported beside it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct{ n, pct int }{
		{n: 3, pct: 50}, // the median has nothing lower to fall back to
		{n: 39, pct: 50},
		{n: 40, pct: 75},
		{n: 99, pct: 75}, // 9 beyond p90
		{n: 100, pct: 90},
		{n: 199, pct: 90}, // 9 beyond p95
		{n: 200, pct: 95},
		{n: 10000, pct: 95}, // p95 is the highest any metric names
	} {
		pct, v := supportedTail(seq(c.n))
		if pct != c.pct {
			t.Errorf("n=%d: percentile %d, want %d", c.n, pct, c.pct)
		}
		if want := quantile(seq(c.n), float64(pct)/100); v != want {
			t.Errorf("n=%d: value %v is not the p%d of the sample (%v)", c.n, v, pct, want)
		}
	}
}
