package numeric

import "math"

// LogChoose returns log(C(n, k)) for 0 <= k <= n, computed through the
// log-gamma function so that it is usable for n in the millions.
// It returns math.Inf(-1) when k < 0 or k > n (an impossible outcome).
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln1, _ := math.Lgamma(float64(n) + 1)
	lk1, _ := math.Lgamma(float64(k) + 1)
	lnk1, _ := math.Lgamma(float64(n-k) + 1)
	return ln1 - lk1 - lnk1
}

// LogBinomialPMF returns log(P{Bin(n,p) = k}).
// Out-of-range k yields math.Inf(-1).
func LogBinomialPMF(k, n int, p float64) float64 {
	switch {
	case k < 0 || k > n:
		return math.Inf(-1)
	case p <= 0:
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	case p >= 1:
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// BinomialPMF returns P{Bin(n,p) = k}.
func BinomialPMF(k, n int, p float64) float64 {
	return math.Exp(LogBinomialPMF(k, n, p))
}

// BinomialCDF returns P{Bin(n,p) <= k}.
//
// For small k (fewer than cdfDirectTerms terms) the probability is the
// direct sum of point masses, accumulated with compensated summation.
// Otherwise it is evaluated through the regularized incomplete beta
// function: P{Bin(n,p) <= k} = I_{1-p}(n-k, k+1).
func BinomialCDF(k, n int, p float64) float64 {
	switch {
	case k < 0:
		return 0
	case k >= n:
		return 1
	case p <= 0:
		return 1
	case p >= 1:
		return 0
	}
	if k < cdfDirectTerms {
		var s KahanSum
		for i := 0; i <= k; i++ {
			s.Add(BinomialPMF(i, n, p))
		}
		return clampUnit(s.Sum())
	}
	return clampUnit(RegIncBeta(float64(n-k), float64(k)+1, 1-p))
}

// cdfDirectTerms bounds how many point masses are summed directly before
// switching to the incomplete-beta form. The models in internal/core only
// ever need tails with k below the top-list length t (tens at most), so the
// direct path dominates in practice.
const cdfDirectTerms = 64

// LogPoissonPMF returns log(P{Poisson(lambda) = k}).
func LogPoissonPMF(k int, lambda float64) float64 {
	if k < 0 || lambda < 0 {
		return math.Inf(-1)
	}
	if lambda == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	lk1, _ := math.Lgamma(float64(k) + 1)
	return float64(k)*math.Log(lambda) - lambda - lk1
}

// PoissonPMF returns P{Poisson(lambda) = k}.
func PoissonPMF(k int, lambda float64) float64 {
	return math.Exp(LogPoissonPMF(k, lambda))
}

// PoissonCDF returns P{Poisson(lambda) <= k}.
// For small k it sums point masses; otherwise it uses the identity
// P{Poisson(lambda) <= k} = Q(k+1, lambda) (regularized upper gamma).
func PoissonCDF(k int, lambda float64) float64 {
	if k < 0 {
		return 0
	}
	if lambda <= 0 {
		return 1
	}
	if k < cdfDirectTerms {
		var s KahanSum
		for i := 0; i <= k; i++ {
			s.Add(PoissonPMF(i, lambda))
		}
		return clampUnit(s.Sum())
	}
	return clampUnit(RegGammaQ(float64(k)+1, lambda))
}

func clampUnit(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
