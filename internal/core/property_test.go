package core

import (
	"math"
	"testing"
	"testing/quick"

	"flowrank/internal/dist"
)

// Property-based tests of invariants that must hold for any parameters.

func TestMisrankExactProbabilityBounds(t *testing.T) {
	f := func(s1Raw, s2Raw uint16, pRaw uint16) bool {
		s1 := int(s1Raw%400) + 1
		s2 := int(s2Raw%400) + 1
		p := (float64(pRaw%999) + 0.5) / 1000
		v := MisrankExact(s1, s2, p)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMisrankExactSymmetryProperty(t *testing.T) {
	f := func(s1Raw, s2Raw uint16, pRaw uint16) bool {
		s1 := int(s1Raw%300) + 1
		s2 := int(s2Raw%300) + 1
		p := (float64(pRaw%999) + 0.5) / 1000
		return MisrankExact(s1, s2, p) == MisrankExact(s2, s1, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMisrankTruncMatchesFullProperty(t *testing.T) {
	f := func(s1Raw, s2Raw uint16, pRaw uint16) bool {
		s1 := int(s1Raw%500) + 1
		s2 := int(s2Raw%500) + 1
		p := (float64(pRaw%999) + 0.5) / 1000
		full := misrankFullSum(s1, s2, p)
		trunc := MisrankExact(s1, s2, p)
		return math.Abs(full-trunc) <= 1e-9*(1+full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGaussianMonotoneInGap(t *testing.T) {
	// At fixed total size, widening the gap always helps.
	f := func(totRaw, gapRaw uint16, pRaw uint16) bool {
		tot := float64(totRaw%10000) + 100
		gapA := float64(gapRaw % 50)
		gapB := gapA + 10
		p := (float64(pRaw%999) + 0.5) / 1000
		a := MisrankGaussian((tot-gapA)/2, (tot+gapA)/2, p)
		b := MisrankGaussian((tot-gapB)/2, (tot+gapB)/2, p)
		return b <= a+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOptimalRateBracketsTarget(t *testing.T) {
	f := func(s1Raw, s2Raw uint16, tgtRaw uint16) bool {
		s1 := int(s1Raw%200) + 1
		s2 := int(s2Raw%200) + 1
		target := (float64(tgtRaw%400) + 1) / 1000 // 0.1%..40%
		p, err := OptimalRate(s1, s2, target, RateExact)
		if err != nil {
			return false
		}
		// At the returned rate the misranking probability meets the
		// target; slightly below it, it exceeds it (unless clamped at
		// the bracket edge).
		at := MisrankExact(s1, s2, p)
		if at > target*1.01+1e-9 {
			return false
		}
		if p > 2e-9 && p < 0.99 {
			below := MisrankExact(s1, s2, p*0.9)
			if below < target*0.99-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMetricScalesWithPairCount(t *testing.T) {
	// The ranking metric can never exceed the total pair count, and the
	// detection metric never exceeds the boundary pair count.
	d := dist.ParetoWithMean(9.6, 1.5)
	f := func(nRaw, tRaw uint16, pRaw uint16) bool {
		n := int(nRaw%5000) + 100
		tt := int(tRaw%20) + 1
		if tt >= n {
			tt = n - 1
		}
		p := (float64(pRaw%99) + 0.5) / 100
		m := Model{N: n, T: tt, Dist: d}
		nf, tf := float64(n), float64(tt)
		if r := m.RankingMetric(p); r < 0 || r > (2*nf-tf-1)*tf/2*1.001 {
			return false
		}
		if dv := m.DetectionMetric(p); dv < 0 || dv > tf*(nf-tf)*1.001 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMetricsAcrossDistributions(t *testing.T) {
	// Every distribution implementation must produce finite, ordered
	// metrics (detection <= ranking) across the rate range.
	dists := []dist.SizeDist{
		dist.ParetoWithMean(9.6, 1.5),
		dist.BoundedPareto{Scale: 3.2, Max: 1e6, Shape: 1.5},
		dist.ExponentialWithMean(1, 9.6),
		dist.Weibull{Min: 1, Lambda: 8, K: 1.4},
		dist.Lognormal{Min: 1, Mu: 1.2, Sigma: 1.1},
	}
	for _, d := range dists {
		m := Model{N: 50000, T: 5, Dist: d}
		prev := math.Inf(1)
		for _, p := range []float64{0.01, 0.1, 0.5} {
			r := m.RankingMetric(p)
			dv := m.DetectionMetric(p)
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				t.Errorf("%s: ranking metric %g at p=%g", d, r, p)
			}
			if dv > r*1.001 {
				t.Errorf("%s: detection %g above ranking %g at p=%g", d, dv, r, p)
			}
			if r > prev*1.001 {
				t.Errorf("%s: metric not decreasing at p=%g", d, p)
			}
			prev = r
		}
	}
}
