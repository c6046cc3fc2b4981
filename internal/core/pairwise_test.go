package core

import (
	"math"
	"testing"

	"flowrank/internal/numeric"
	"flowrank/internal/randx"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// misrankFullSum is Eq. (1) summed over every sampled size of the smaller
// flow, each term from log-gamma: O(s) where MisrankExact keeps a window of
// O(sqrt(p·s)) terms around the mean. It is the reference the truncation is
// held to.
func misrankFullSum(s1, s2 int, p float64) float64 {
	if s1 > s2 {
		s1, s2 = s2, s1
	}
	switch {
	case p <= 0:
		return 1
	case p >= 1:
		return 0
	}
	var acc numeric.KahanSum
	if s1 == s2 {
		// 1 - sum_{i>=1} b_p(i,s)^2: different sampled sizes, or both zero.
		for i := 1; i <= s1; i++ {
			b := numeric.BinomialPMF(i, s1, p)
			acc.Add(b * b)
		}
		return numeric.ClampUnit(1 - acc.Sum())
	}
	// P{x1 >= x2} = sum_i P{x1 = i} * P{x2 <= i}.
	for i := 0; i <= s1; i++ {
		if pmf := numeric.BinomialPMF(i, s1, p); pmf != 0 {
			acc.Add(pmf * numeric.BinomialCDF(i, s2, p))
		}
	}
	return numeric.ClampUnit(acc.Sum())
}

func TestMisrankExactHandComputed(t *testing.T) {
	// S1=1, S2=2: Pm = q^3 + p q^2 + 2 p^2 q with q = 1-p.
	for _, p := range []float64{0.1, 0.3, 0.5, 0.9} {
		q := 1 - p
		want := q*q*q + p*q*q + 2*p*p*q
		got := MisrankExact(1, 2, p)
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("Pm(1,2,%g) = %g, want %g", p, got, want)
		}
	}
}

func TestMisrankExactPaperMinimumFormula(t *testing.T) {
	// §3.1: against a 1-packet flow the misranking probability is
	// (1-p)^(S-1) (1 - p + p^2 S).
	for _, s := range []int{2, 5, 17, 100, 400} {
		for _, p := range []float64{0.01, 0.1, 0.5} {
			want := math.Pow(1-p, float64(s-1)) * (1 - p + p*p*float64(s))
			got := MisrankExact(1, s, p)
			if !almostEqual(got, want, 1e-10) {
				t.Errorf("Pm(1,%d,%g) = %g, want %g", s, p, got, want)
			}
		}
	}
}

func TestMisrankExactSymmetric(t *testing.T) {
	if MisrankExact(7, 31, 0.2) != MisrankExact(31, 7, 0.2) {
		t.Error("misranking probability must be symmetric")
	}
}

func TestMisrankExactLimits(t *testing.T) {
	if got := MisrankExact(3, 9, 0); got != 1 {
		t.Errorf("p=0: %g, want 1", got)
	}
	if got := MisrankExact(3, 9, 1); got != 0 {
		t.Errorf("p=1: %g, want 0", got)
	}
	// Equal sizes at p=1 are never misranked (equal, nonzero counts).
	if got := MisrankExact(5, 5, 1); got != 0 {
		t.Errorf("equal sizes, p=1: %g, want 0", got)
	}
	// Equal sizes at tiny p are almost surely both zero => misranked.
	if got := MisrankExact(5, 5, 1e-6); got < 0.9999 {
		t.Errorf("equal sizes, p→0: %g, want ≈1", got)
	}
}

func TestMisrankExactMonotoneInP(t *testing.T) {
	prev := 1.1
	for _, p := range []float64{0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.99} {
		v := MisrankExact(40, 60, p)
		if v > prev+1e-12 {
			t.Fatalf("Pm not non-increasing in p at %g: %g > %g", p, v, prev)
		}
		prev = v
	}
}

func TestMisrankExactAggregationInequality(t *testing.T) {
	// §3.1: Pm(S1,S2) >= Pm(S1-k,S2): shrinking the smaller flow can only
	// help the ranking.
	p := 0.15
	s2 := 50
	prev := 0.0
	for s1 := 1; s1 < s2; s1++ {
		v := MisrankExact(s1, s2, p)
		if v < prev-1e-12 {
			t.Fatalf("Pm(%d,%d) = %g < Pm(%d,%d) = %g", s1, s2, v, s1-1, s2, prev)
		}
		prev = v
	}
}

func TestMisrankExactMonteCarlo(t *testing.T) {
	g := randx.New(99)
	cases := []struct {
		s1, s2 int
		p      float64
	}{
		{10, 15, 0.3}, {100, 120, 0.1}, {5, 50, 0.05}, {8, 8, 0.25},
	}
	const trials = 200000
	for _, c := range cases {
		swaps := 0
		for i := 0; i < trials; i++ {
			x1 := g.Binomial(c.s1, c.p)
			x2 := g.Binomial(c.s2, c.p)
			if c.s1 == c.s2 {
				if x1 != x2 || x1 == 0 {
					swaps++
				}
			} else if x1 >= x2 {
				swaps++
			}
		}
		got := float64(swaps) / trials
		want := MisrankExact(c.s1, c.s2, c.p)
		se := math.Sqrt(want*(1-want)/trials) + 1e-9
		if math.Abs(got-want) > 6*se {
			t.Errorf("MC Pm(%d,%d,%g) = %g, analytic %g (±%g)", c.s1, c.s2, c.p, got, want, 6*se)
		}
	}
}

func TestGaussianCloseWhenPSLarge(t *testing.T) {
	// Fig. 3's observation: the absolute error is near zero (on the
	// figure's 0–0.6 scale) once pS >= 3 for at least one flow. The
	// equal-size diagonal is excluded: there the paper switches to the
	// dedicated equal-size formula.
	p := 0.01
	for _, s2 := range []int{300, 500, 1000} {
		for _, s1 := range []int{50, 100, 300} {
			if s1 == s2 {
				continue
			}
			if e := GaussianAbsError(s1, s2, p); e > 0.1 {
				t.Errorf("abs error at (%d,%d,p=1%%) = %g, want < 0.1", s1, s2, e)
			}
		}
	}
	// And the error vanishes as both flows grow at a fixed ratio.
	if e := GaussianAbsError(500, 1000, 0.05); e > 0.02 {
		t.Errorf("abs error at (500,1000,p=5%%) = %g, want < 0.02", e)
	}
}

func TestGaussianPoorWhenPSSmall(t *testing.T) {
	// Both flows with pS << 1: the approximation visibly breaks (the paper
	// reports errors up to ~0.6 in this corner).
	if e := GaussianAbsError(1, 2, 0.01); e < 0.05 {
		t.Errorf("abs error at (1,2,p=1%%) = %g, expected the Gaussian to fail here", e)
	}
}

func TestMisrankGaussianSquareRootLaw(t *testing.T) {
	p := 0.01
	// Fixed gap k: misranking grows with size (§4).
	k := 20.0
	prev := -1.0
	for _, s := range []float64{50, 100, 400, 1600} {
		v := MisrankGaussian(s, s+k, p)
		if v < prev {
			t.Fatalf("fixed-gap misranking should increase with size: %g after %g", v, prev)
		}
		prev = v
	}
	// Fixed ratio alpha: misranking shrinks with size.
	alpha := 0.8
	prev = 2.0
	for _, s := range []float64{50, 100, 400, 1600} {
		v := MisrankGaussian(alpha*s, s, p)
		if v > prev {
			t.Fatalf("fixed-ratio misranking should decrease with size: %g after %g", v, prev)
		}
		prev = v
	}
}

func TestOptimalRateHitsTarget(t *testing.T) {
	for _, method := range []RateMethod{RateExact, RateGaussian} {
		for _, c := range []struct {
			s1, s2 int
		}{{100, 200}, {500, 550}, {10, 1000}} {
			p, err := OptimalRate(c.s1, c.s2, 1e-3, method)
			if err != nil {
				t.Fatalf("OptimalRate(%d,%d): %v", c.s1, c.s2, err)
			}
			var res float64
			if method == RateGaussian {
				res = MisrankGaussian(float64(c.s1), float64(c.s2), p)
			} else {
				res = MisrankExact(c.s1, c.s2, p)
			}
			if !almostEqual(res, 1e-3, 1e-4) {
				t.Errorf("method %v: Pm at optimal rate = %g, want 1e-3", method, res)
			}
		}
	}
}

func TestOptimalRateOrdering(t *testing.T) {
	// Closer sizes need higher rates (Fig. 1).
	pClose, err := OptimalRate(90, 100, 1e-3, RateExact)
	if err != nil {
		t.Fatal(err)
	}
	pFar, err := OptimalRate(10, 100, 1e-3, RateExact)
	if err != nil {
		t.Fatal(err)
	}
	if pClose <= pFar {
		t.Errorf("pClose = %g should exceed pFar = %g", pClose, pFar)
	}
	// Fixed gap k: larger flows need a higher rate (Fig. 2).
	pSmall, err := OptimalRate(50, 60, 1e-3, RateExact)
	if err != nil {
		t.Fatal(err)
	}
	pBig, err := OptimalRate(500, 510, 1e-3, RateExact)
	if err != nil {
		t.Fatal(err)
	}
	if pBig <= pSmall {
		t.Errorf("fixed gap: rate for big flows %g should exceed small flows %g", pBig, pSmall)
	}
}

func TestOptimalRateRejectsBadTarget(t *testing.T) {
	if _, err := OptimalRate(10, 20, 0, RateExact); err == nil {
		t.Error("target 0 should be rejected")
	}
	if _, err := OptimalRate(10, 20, 1, RateExact); err == nil {
		t.Error("target 1 should be rejected")
	}
}

// TestExactRowsMatchTrunc pins the row forms to MisrankExact cell by
// cell, over the sizes and rates the hybrid kernel hands them (p·size under
// hybridThreshold on the fixed side, thousands of cells on the walking
// one), and the continued kernel to the same values at the integers.
func TestExactRowsMatchTrunc(t *testing.T) {
	same := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-10*want+1e-290
	}
	for _, c := range []struct {
		fixed int
		p     float64
		cells int
	}{
		{1, 0.9, 60}, {5, 0.9, 60}, {11, 0.9, 60}, {3, 0.5, 200}, {19, 0.5, 200},
		{40, 0.2, 500}, {99, 0.1, 1000}, {300, 0.03, 3000}, {999, 0.01, 9000},
		{200, 0.003, 30000}, {3000, 0.003, 30000}, {25, 1e-4, 50000},
	} {
		var up aboveRow
		up.start(c.fixed, c.p)
		for k := 1; k <= c.cells; k++ {
			got, want := up.next(), MisrankExact(c.fixed, c.fixed+k, c.p)
			if !same(got, want) {
				t.Fatalf("aboveRow(%d, p=%g) cell %d: %.17g, MisrankExact %.17g", c.fixed, c.p, c.fixed+k, got, want)
			}
			if k%97 == 1 {
				if cont := up.continued(float64(c.fixed + k)); !same(cont, want) {
					t.Fatalf("continued(%d, p=%g) at %d: %.17g, MisrankExact %.17g", c.fixed, c.p, c.fixed+k, cont, want)
				}
			}
		}
		// Between two integers the continued kernel lies between them.
		lo, hi := MisrankExact(c.fixed, c.fixed+8, c.p), MisrankExact(c.fixed, c.fixed+7, c.p)
		if mid := up.continued(float64(c.fixed) + 7.5); !(lo <= mid && mid <= hi) {
			t.Errorf("continued(%d, p=%g) at +7.5: %g outside [%g, %g]", c.fixed, c.p, mid, lo, hi)
		}

		// The same sizes the other way round: fixed larger flow, walking
		// smaller one, up to where p·size leaves the exact regime.
		big := c.fixed + c.cells
		last := min(big-1, int(hybridThreshold/c.p)+2)
		var low belowRow
		low.start(big, c.p, last)
		for j := 1; j <= last; j++ {
			if got, want := low.next(), MisrankExact(j, big, c.p); !same(got, want) {
				t.Fatalf("belowRow(%d, p=%g) cell %d: %.17g, MisrankExact %.17g", big, c.p, j, got, want)
			}
		}
	}
}

func BenchmarkMisrankExact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = MisrankExact(500, 600, 0.05)
	}
}
