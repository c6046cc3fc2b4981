package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestLogChooseSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {4, 2, 6}, {5, 2, 10},
		{10, 3, 120}, {20, 10, 184756}, {52, 5, 2598960},
	}
	for _, c := range cases {
		got := math.Exp(LogChoose(c.n, c.k))
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("C(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestLogChooseOutOfRange(t *testing.T) {
	if !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("LogChoose(5,-1) should be -Inf")
	}
	if !math.IsInf(LogChoose(5, 6), -1) {
		t.Error("LogChoose(5,6) should be -Inf")
	}
}

func TestLogChooseSymmetry(t *testing.T) {
	f := func(n uint16, k uint16) bool {
		nn := int(n%2000) + 1
		kk := int(k) % (nn + 1)
		return almostEqual(LogChoose(nn, kk), LogChoose(nn, nn-kk), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogChoosePascal(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) for interior entries.
	for n := 2; n <= 60; n++ {
		for k := 1; k < n; k++ {
			lhs := math.Exp(LogChoose(n, k))
			rhs := math.Exp(LogChoose(n-1, k-1)) + math.Exp(LogChoose(n-1, k))
			if !almostEqual(lhs, rhs, 1e-10) {
				t.Fatalf("Pascal identity failed at n=%d k=%d: %g vs %g", n, k, lhs, rhs)
			}
		}
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 2, 7, 25, 130} {
		for _, p := range []float64{0.001, 0.01, 0.3, 0.5, 0.9, 0.999} {
			var s KahanSum
			for k := 0; k <= n; k++ {
				s.Add(BinomialPMF(k, n, p))
			}
			if !almostEqual(s.Sum(), 1, 1e-12) {
				t.Errorf("sum pmf(n=%d,p=%g) = %g, want 1", n, p, s.Sum())
			}
		}
	}
}

func TestBinomialPMFEdgeCases(t *testing.T) {
	if got := BinomialPMF(0, 10, 0); got != 1 {
		t.Errorf("PMF(0;10,0) = %g, want 1", got)
	}
	if got := BinomialPMF(3, 10, 0); got != 0 {
		t.Errorf("PMF(3;10,0) = %g, want 0", got)
	}
	if got := BinomialPMF(10, 10, 1); got != 1 {
		t.Errorf("PMF(10;10,1) = %g, want 1", got)
	}
	if got := BinomialPMF(-1, 10, 0.5); got != 0 {
		t.Errorf("PMF(-1;10,0.5) = %g, want 0", got)
	}
	if got := BinomialPMF(11, 10, 0.5); got != 0 {
		t.Errorf("PMF(11;10,0.5) = %g, want 0", got)
	}
}

func TestBinomialMeanIdentity(t *testing.T) {
	// E[X] = sum k*pmf(k) must equal n*p.
	for _, n := range []int{3, 17, 64} {
		for _, p := range []float64{0.05, 0.4, 0.77} {
			var s KahanSum
			for k := 0; k <= n; k++ {
				s.Add(float64(k) * BinomialPMF(k, n, p))
			}
			if !almostEqual(s.Sum(), float64(n)*p, 1e-10) {
				t.Errorf("mean(n=%d,p=%g) = %g, want %g", n, p, s.Sum(), float64(n)*p)
			}
		}
	}
}

func TestBinomialCDFMatchesDirectSum(t *testing.T) {
	// Compare the incomplete-beta path against the direct sum on a case
	// where both are exercised.
	n := 500
	p := 0.13
	for k := 0; k <= n; k += 7 {
		var s KahanSum
		for i := 0; i <= k; i++ {
			s.Add(BinomialPMF(i, n, p))
		}
		got := BinomialCDF(k, n, p)
		if !almostEqual(got, s.Sum(), 1e-9) {
			t.Fatalf("CDF(%d;%d,%g) = %g, direct sum %g", k, n, p, got, s.Sum())
		}
	}
}

func TestBinomialCDFSurvivalComplement(t *testing.T) {
	f := func(nRaw uint16, kRaw uint16, pRaw uint16) bool {
		n := int(nRaw%3000) + 1
		k := int(kRaw) % (n + 1)
		p := (float64(pRaw%999) + 0.5) / 1000
		cdf := BinomialCDF(k, n, p)
		sur := BinomialSurvival(k+1, n, p)
		return almostEqual(cdf+sur, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBinomialCDFMonotone(t *testing.T) {
	n := 200
	p := 0.31
	prev := -1.0
	for k := 0; k <= n; k++ {
		c := BinomialCDF(k, n, p)
		if c < prev-1e-14 {
			t.Fatalf("CDF not monotone at k=%d: %g < %g", k, c, prev)
		}
		prev = c
	}
	if !almostEqual(prev, 1, 1e-12) {
		t.Errorf("CDF(n) = %g, want 1", prev)
	}
}

func TestBinomialSurvivalLargeN(t *testing.T) {
	// With N ~ 1e6 and tiny success probability the tail must stay finite
	// and match the Poisson limit.
	n := 1_000_000
	pp := 5.0 / float64(n)
	for k := 0; k <= 15; k++ {
		b := BinomialSurvival(k, n, pp)
		po := 1 - PoissonCDF(k-1, 5.0)
		if !almostEqual(b, po, 1e-4) {
			t.Errorf("survival(k=%d): binomial %g vs poisson %g", k, b, po)
		}
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.1, 1, 4, 20} {
		var s KahanSum
		for k := 0; k < 400; k++ {
			s.Add(PoissonPMF(k, lambda))
		}
		if !almostEqual(s.Sum(), 1, 1e-10) {
			t.Errorf("poisson pmf sum (lambda=%g) = %g", lambda, s.Sum())
		}
	}
}

func TestPoissonCDFRecurrence(t *testing.T) {
	// CDF(k) - CDF(k-1) = PMF(k).
	lambda := 7.3
	for k := 1; k < 80; k++ {
		diff := PoissonCDF(k, lambda) - PoissonCDF(k-1, lambda)
		if !almostEqual(diff, PoissonPMF(k, lambda), 1e-9) {
			t.Fatalf("poisson recurrence failed at k=%d", k)
		}
	}
}

func TestPoissonCDFLargeK(t *testing.T) {
	// Exercise the incomplete-gamma path (k >= cdfDirectTerms).
	lambda := 100.0
	got := PoissonCDF(100, lambda)
	// Median of Poisson(100) is about 100; CDF should be slightly above 0.5.
	if got < 0.5 || got > 0.55 {
		t.Errorf("PoissonCDF(100,100) = %g, want ~0.527", got)
	}
	if got := PoissonCDF(500, lambda); !almostEqual(got, 1, 1e-9) {
		t.Errorf("PoissonCDF(500,100) = %g, want 1", got)
	}
}

func BenchmarkBinomialPMF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = BinomialPMF(12, 100000, 0.001)
	}
}

func BenchmarkBinomialSurvivalBeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = BinomialSurvival(900, 100000, 0.001)
	}
}
