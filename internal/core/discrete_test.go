package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"flowrank/internal/numeric"
	"flowrank/internal/randx"
)

// DiscreteModel is the test reference for Model: it evaluates the paper's
// metrics by direct summation of the discrete formulas (Eq. 1 and Eq. 3)
// over an explicit finite flow-size pmf. Its cost grows with the square of
// the support size, so it is only practical for small scenarios; it is the
// ground truth the continuous quadrature model and the Monte-Carlo
// simulators are validated against.
//
// Conventions: flow sizes are the indices s = 1..len(PMF)-1 with
// probabilities PMF[s] (PMF[0] must be zero). A flow of size s belongs to
// the top-t list iff at most t-1 other flows are strictly larger; a tied
// flow therefore does not displace it. (The paper's Eq. 3 is ambiguous for
// exact ties — its flow sizes are continuous — and we resolve ties with the
// strict convention used by the simulator in internal/metrics.)
type DiscreteModel struct {
	// PMF[s] is the probability that a flow has exactly s packets.
	PMF []float64
	// N is the total number of flows; T the top-list length.
	N, T int
}

// Validate checks parameters and that PMF is a distribution.
func (dm DiscreteModel) Validate() error {
	if dm.N < 2 || dm.T < 1 || dm.T >= dm.N {
		return fmt.Errorf("core: discrete model needs 2 <= N and 1 <= T < N, got N=%d T=%d", dm.N, dm.T)
	}
	if len(dm.PMF) < 2 {
		return fmt.Errorf("core: discrete pmf must cover sizes >= 1")
	}
	if dm.PMF[0] != 0 {
		return fmt.Errorf("core: PMF[0] = %g, flows of zero packets are not allowed", dm.PMF[0])
	}
	var sum numeric.KahanSum
	for s, ps := range dm.PMF {
		if ps < 0 {
			return fmt.Errorf("core: PMF[%d] = %g is negative", s, ps)
		}
		sum.Add(ps)
	}
	if d := sum.Sum(); d < 0.999999 || d > 1.000001 {
		return fmt.Errorf("core: pmf sums to %g, want 1", d)
	}
	return nil
}

// ccdfStrict returns gt[s] = P{S > s} for s = 0..M.
func (dm DiscreteModel) ccdfStrict() []float64 {
	m := len(dm.PMF) - 1
	gt := make([]float64, m+1)
	var tail numeric.KahanSum
	gt[m] = 0 // nothing exceeds the largest size
	for s := m - 1; s >= 0; s-- {
		tail.Add(dm.PMF[s+1])
		gt[s] = tail.Sum()
	}
	return gt
}

// misrankTable returns pm[i][j] = MisrankExact(i, j, p) for 1 <= i, j <= M
// (symmetric; the diagonal is the equal-size convention).
func (dm DiscreteModel) misrankTable(p float64) [][]float64 {
	m := len(dm.PMF) - 1
	pm := make([][]float64, m+1)
	for i := 1; i <= m; i++ {
		pm[i] = make([]float64, m+1)
	}
	for i := 1; i <= m; i++ {
		for j := i; j <= m; j++ {
			v := MisrankExact(i, j, p)
			pm[i][j] = v
			pm[j][i] = v
		}
	}
	return pm
}

// RankingMetric returns the §5 metric (2N−t−1)·t/2 · P̄mt evaluated by
// direct summation. Each call builds the strict CCDF and the O(max²)
// misranking table for p.
func (dm DiscreteModel) RankingMetric(p float64) float64 {
	if err := dm.Validate(); err != nil {
		panic(err)
	}
	return dm.rankingOver(dm.ccdfStrict(), dm.misrankTable(p))
}

// rankingOver is RankingMetric over tables the caller built: gt from
// ccdfStrict, pm from misrankTable at the rate in question.
func (dm DiscreteModel) rankingOver(gt []float64, pm [][]float64) float64 {
	mMax := len(dm.PMF) - 1

	// P̄mt · (t/N) = Σ_i pmf_i [ Pt(i,t,N-1)·Σ_{j<=i} p_j·Pm +
	//                            Pt(i,t-1,N-1)·Σ_{j>i} p_j·Pm ]
	// with the membership factor Pt(i,t,N) cancelled against the
	// conditioning denominator, exactly as in the continuous model. Ties
	// (j == i) use the equal-size misranking probability and do not
	// displace flow i from the top list.
	var outer numeric.KahanSum
	for i := 1; i <= mMax; i++ {
		pi := dm.PMF[i]
		if pi == 0 {
			continue
		}
		wSame := TopProb(gt[i], dm.T, dm.N-1, false)
		wDisp := TopProb(gt[i], dm.T-1, dm.N-1, false)
		var below, above numeric.KahanSum
		for j := 1; j <= i; j++ {
			if dm.PMF[j] != 0 {
				below.Add(dm.PMF[j] * pm[j][i])
			}
		}
		for j := i + 1; j <= mMax; j++ {
			if dm.PMF[j] != 0 {
				above.Add(dm.PMF[j] * pm[i][j])
			}
		}
		outer.Add(pi * (wSame*below.Sum() + wDisp*above.Sum()))
	}
	n, t := float64(dm.N), float64(dm.T)
	return (2*n - t - 1) / 2 * n * outer.Sum()
}

// DetectionMetric returns the §7 metric t(N−t)·P̄*mt evaluated by direct
// summation: N(N−1) Σ_i Σ_{j<i} p_i p_j P*t(j,i) Pm(j,i).
func (dm DiscreteModel) DetectionMetric(p float64) float64 {
	if err := dm.Validate(); err != nil {
		panic(err)
	}
	return dm.detectionOver(dm.ccdfStrict(), dm.misrankTable(p))
}

// detectionOver is DetectionMetric over the same tables as rankingOver.
func (dm DiscreteModel) detectionOver(gt []float64, pm [][]float64) float64 {
	mMax := len(dm.PMF) - 1

	pmfBig := make([]float64, 0, dm.T)
	var outer numeric.KahanSum
	for i := 1; i <= mMax; i++ {
		pi := dm.PMF[i]
		if pi == 0 {
			continue
		}
		pmfBig = topPMF(pmfBig, gt[i], dm.T, dm.N, false)
		var inner numeric.KahanSum
		for j := 1; j < i; j++ {
			pj := dm.PMF[j]
			if pj == 0 {
				continue
			}
			joint := JointTopProb(pmfBig, gt[j], gt[i], dm.T, dm.N, false)
			inner.Add(pj * joint * pm[j][i])
		}
		outer.Add(pi * inner.Sum())
	}
	n := float64(dm.N)
	return n * (n - 1) * outer.Sum()
}

// GeometricPMF returns a truncated geometric flow-size pmf on sizes
// 1..max with success probability q, a convenient light-tailed test
// distribution: P{S = s} ∝ (1-q)^(s-1).
func GeometricPMF(q float64, max int) []float64 {
	pmf := make([]float64, max+1)
	var norm numeric.KahanSum
	v := 1.0
	for s := 1; s <= max; s++ {
		pmf[s] = v
		norm.Add(v)
		v *= 1 - q
	}
	for s := 1; s <= max; s++ {
		pmf[s] /= norm.Sum()
	}
	return pmf
}

// ZipfPMF returns a truncated power-law pmf on sizes 1..max:
// P{S = s} ∝ s^-(alpha+1), the discrete cousin of Pareto(shape alpha).
func ZipfPMF(alpha float64, max int) []float64 {
	pmf := make([]float64, max+1)
	var norm numeric.KahanSum
	for s := 1; s <= max; s++ {
		v := math.Pow(float64(s), -(alpha + 1))
		pmf[s] = v
		norm.Add(v)
	}
	for s := 1; s <= max; s++ {
		pmf[s] /= norm.Sum()
	}
	return pmf
}

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
	pmf := ZipfPMF(1.0, 120)
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
	dm := DiscreteModel{PMF: ZipfPMF(1.3, 80), N: 60, T: 5}
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
