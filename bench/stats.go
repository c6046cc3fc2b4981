package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// spread is how one metric's samples are reported next to its median.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(samples []float64) spread {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return spread{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func median(samples []float64) float64 { return summarize(samples).Median }

// tailPercentiles are the percentiles a latency tail may be reported at,
// ascending; p95 is the highest any metric names.
var tailPercentiles = []int{50, 75, 90, 95}

// supportedTail applies the reporting rule for latency tails: a
// percentile is reported only when at least ten samples lie beyond it.
// It returns the highest such percentile and its value; with fewer than
// twenty samples that is still the median, which has nothing lower to
// fall back to.
func supportedTail(samples []float64) (pct int, value float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pct = tailPercentiles[0]
	for _, p := range tailPercentiles[1:] {
		// Samples strictly beyond the p-th percentile's rank.
		if beyond := len(s) - (len(s)*p+99)/100; beyond < 10 {
			break
		}
		pct = p
	}
	return pct, quantile(s, float64(pct)/100)
}
