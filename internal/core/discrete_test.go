package core

import (
	"math"
	"sort"
	"testing"

	"flowrank/internal/numeric"
	"flowrank/internal/randx"
)

func TestDiscreteModelValidate(t *testing.T) {
	good := DiscreteModel{PMF: GeometricPMF(0.3, 50), N: 10, T: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := []DiscreteModel{
		{PMF: GeometricPMF(0.3, 50), N: 1, T: 1},
		{PMF: GeometricPMF(0.3, 50), N: 10, T: 0},
		{PMF: GeometricPMF(0.3, 50), N: 10, T: 10},
		{PMF: []float64{0.5, 0.5}, N: 10, T: 2},     // mass at size 0
		{PMF: []float64{0, 0.5, 0.4}, N: 10, T: 2},  // sums to 0.9
		{PMF: []float64{0, 1.5, -0.5}, N: 10, T: 2}, // negative
	}
	for i, dm := range bad {
		if err := dm.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPMFConstructors(t *testing.T) {
	for _, pmf := range [][]float64{GeometricPMF(0.2, 100), ZipfPMF(1.2, 100)} {
		var s numeric.KahanSum
		for _, v := range pmf {
			s.Add(v)
		}
		if !almostEqual(s.Sum(), 1, 1e-12) {
			t.Errorf("pmf sums to %g", s.Sum())
		}
		if pmf[0] != 0 {
			t.Errorf("pmf[0] = %g, want 0", pmf[0])
		}
		// Monotone decreasing for these families.
		for i := 2; i < len(pmf); i++ {
			if pmf[i] > pmf[i-1] {
				t.Errorf("pmf not decreasing at %d", i)
			}
		}
	}
}

// TestDiscreteDetectionMatchesEnumeration verifies the detection metric by
// exhaustive enumeration of every size assignment of a tiny population —
// the strongest possible ground truth for the P*t machinery.
func TestDiscreteDetectionMatchesEnumeration(t *testing.T) {
	pmf := []float64{0, 0.35, 0.25, 0.18, 0.12, 0.07, 0.03}
	n, tt := 5, 2
	p := 0.3

	mMax := len(pmf) - 1
	sizes := make([]int, n)
	var detSum float64
	var enumerate func(pos int, prob float64)
	enumerate = func(pos int, prob float64) {
		if pos == n {
			larger := make([]int, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if sizes[j] > sizes[i] {
						larger[i]++
					}
				}
			}
			var det float64
			for i := 0; i < n; i++ {
				if larger[i] > tt-1 {
					continue // i not in top
				}
				for j := 0; j < n; j++ {
					if j == i || larger[j] <= tt-1 {
						continue // j in top
					}
					det += MisrankExact(sizes[j], sizes[i], p)
				}
			}
			detSum += prob * det
			return
		}
		for s := 1; s <= mMax; s++ {
			sizes[pos] = s
			enumerate(pos+1, prob*pmf[s])
		}
	}
	enumerate(0, 1)

	dm := DiscreteModel{PMF: pmf, N: n, T: tt}
	got := dm.DetectionMetric(p)
	if !almostEqual(got, detSum, 1e-9) {
		t.Errorf("DiscreteModel detection = %.9f, enumeration = %.9f", got, detSum)
	}
}

// TestDiscreteRankingNearEnumeration: the ranking metric uses the paper's
// idealized pair count (2N−t−1)t/2, which under-corrects for intra-top
// pairs when original-size ties are common. On a deliberately tie-heavy
// tiny population the two should still agree to within the tie mass.
func TestDiscreteRankingNearEnumeration(t *testing.T) {
	pmf := []float64{0, 0.35, 0.25, 0.18, 0.12, 0.07, 0.03}
	n, tt := 5, 2
	p := 0.3

	mMax := len(pmf) - 1
	sizes := make([]int, n)
	var rankSum float64
	var enumerate func(pos int, prob float64)
	enumerate = func(pos int, prob float64) {
		if pos == n {
			larger := make([]int, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if sizes[j] > sizes[i] {
						larger[i]++
					}
				}
			}
			var rank float64
			for i := 0; i < n; i++ {
				if larger[i] > tt-1 {
					continue
				}
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					if larger[j] <= tt-1 && j < i {
						continue // top-top pair counted once
					}
					rank += MisrankExact(sizes[i], sizes[j], p)
				}
			}
			rankSum += prob * rank
			return
		}
		for s := 1; s <= mMax; s++ {
			sizes[pos] = s
			enumerate(pos+1, prob*pmf[s])
		}
	}
	enumerate(0, 1)

	dm := DiscreteModel{PMF: pmf, N: n, T: tt}
	got := dm.RankingMetric(p)
	if math.Abs(got-rankSum) > 0.35*rankSum {
		t.Errorf("DiscreteModel ranking = %.6f, enumeration = %.6f (tie idealization should stay within 35%%)", got, rankSum)
	}
}

// bothMetrics evaluates the ranking and the detection metric at p over one
// build of the O(max²) misranking table.
func bothMetrics(dm DiscreteModel, p float64) (ranking, detection float64) {
	gt, pm := dm.ccdfStrict(), dm.misrankTable(p)
	return dm.rankingOver(gt, pm), dm.detectionOver(gt, pm)
}

// drawFromPMF draws a size from the pmf by inverse transform.
func drawFromPMF(g *randx.RNG, cdf []float64) int {
	u := g.Float64()
	return sort.SearchFloat64s(cdf, u) + 1
}

func TestDiscreteModelMatchesMonteCarlo(t *testing.T) {
	// Conventions matter here. The discrete model's membership rule is
	// strict (a flow is top-T iff at most T-1 others are strictly larger;
	// ties share membership), and its ordered-pair expectation
	//
	//	E_full = E[ Σ_{F in top} Σ_{G != F} swap(F,G) ]
	//	       = RankingMetric · 2(N-1)/(2N-T-1)
	//
	// is exact. The paper-style deduplicated count (top-top pairs counted
	// once) differs from the metric by the idealized pair-count constant,
	// so it is checked with a loose band only.
	pmf := ZipfPMF(1.0, 200)
	n, tt := 40, 4
	p := 0.15
	dm := DiscreteModel{PMF: pmf, N: n, T: tt}
	wantRank, wantDet := bothMetrics(dm, p)
	wantFull := wantRank * 2 * float64(n-1) / float64(2*n-tt-1)

	cdf := make([]float64, len(pmf)-1)
	var run float64
	for s := 1; s < len(pmf); s++ {
		run += pmf[s]
		cdf[s-1] = run
	}
	cdf[len(cdf)-1] = 1

	g := randx.New(2024)
	const trials = 30000
	var sumF, sumF2, sumR, sumD, sumD2 float64
	sizes := make([]int, n)
	sampled := make([]int, n)
	larger := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		for i := 0; i < n; i++ {
			sizes[i] = drawFromPMF(g, cdf)
			sampled[i] = g.Binomial(sizes[i], p)
			larger[i] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if sizes[j] > sizes[i] {
					larger[i]++
				}
			}
		}
		var full, rank, det float64
		for a := 0; a < n; a++ {
			if larger[a] > tt-1 {
				continue // a not in the (strict) top set
			}
			for j := 0; j < n; j++ {
				if j == a {
					continue
				}
				swapped := false
				if sizes[j] == sizes[a] {
					swapped = sampled[j] != sampled[a] || sampled[a] == 0
				} else {
					small, large := j, a
					if sizes[j] > sizes[a] {
						small, large = a, j
					}
					swapped = sampled[small] >= sampled[large]
				}
				if !swapped {
					continue
				}
				full++
				jTop := larger[j] <= tt-1
				if !jTop {
					det++
					rank++
				} else if j > a {
					rank++ // top-top pair counted once
				}
			}
		}
		sumF += full
		sumF2 += full * full
		sumR += rank
		sumD += det
		sumD2 += det * det
	}
	mF := sumF / trials
	seF := math.Sqrt((sumF2/trials-mF*mF)/trials) + 1e-12
	mR := sumR / trials
	mD := sumD / trials
	seD := math.Sqrt((sumD2/trials-mD*mD)/trials) + 1e-12
	if math.Abs(mF-wantFull) > 6*seF+0.01*wantFull {
		t.Errorf("ordered pairs: MC %g ± %g, model %g", mF, seF, wantFull)
	}
	if math.Abs(mD-wantDet) > 6*seD+0.01*wantDet {
		t.Errorf("detection: MC %g ± %g, model %g", mD, seD, wantDet)
	}
	if math.Abs(mR-wantRank) > 0.25*wantRank {
		t.Errorf("paper-style ranking count: MC %g, model %g (idealization band 25%%)", mR, wantRank)
	}
}

func TestDiscreteMetricsMonotoneInP(t *testing.T) {
	dm := DiscreteModel{PMF: ZipfPMF(1.3, 120), N: 60, T: 5}
	prevR, prevD := math.Inf(1), math.Inf(1)
	for _, p := range []float64{0.02, 0.1, 0.3, 0.7} {
		r, d := bothMetrics(dm, p)
		if r > prevR || d > prevD {
			t.Fatalf("discrete metrics not decreasing at p=%g", p)
		}
		if d > r {
			t.Fatalf("detection %g above ranking %g at p=%g", d, r, p)
		}
		prevR, prevD = r, d
	}
}
