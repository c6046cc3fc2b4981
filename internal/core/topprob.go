package core

import (
	"flowrank/internal/numeric"
)

// topProb returns the probability that a flow whose size is exceeded by a
// random flow with probability u (u = CCDF(size)) belongs to the top-t list
// among n flows total: at most t-1 of the other n-1 flows may be larger
// (paper §5.2, Pt(i,t,N)). The Binomial(n-1, u) count of larger flows is
// taken in its Poisson(λ = (n-1)·u) limit, indistinguishable for the
// n >= 10^4 regimes of the paper (TestPoissonTailAccuracy holds it to the
// binomial form the tests keep).
func topProb(u float64, t, n int) float64 {
	if t <= 0 {
		return 0
	}
	if t >= n {
		return 1
	}
	return numeric.PoissonCDF(t-1, float64(n-1)*u)
}

// topPMF fills dst[k] with the probability that exactly k of the n-2 other
// flows exceed the reference flow, for k = 0..t-1, in the same Poisson
// limit. It is the per-outer-point precomputation used by the detection
// model (the b_{Pi}(k, N-2) factors).
func topPMF(dst []float64, u float64, t, n int) []float64 {
	dst = dst[:0]
	lambda := float64(n-2) * u
	for k := 0; k < t; k++ {
		dst = append(dst, numeric.PoissonPMF(k, lambda))
	}
	return dst
}

// jointTopProb returns P*t(j, i, t, N): the probability that a flow with
// tail probability uBig (the larger flow i) is in the top-t list while a
// flow with tail probability vSmall > uBig (the smaller flow j) is not
// (paper §7.1). pmfBig must be the output of topPMF(…, uBig, t, n).
//
// The count of intermediate flows — Bin(n-k-2, Pji) with
// Pji = (vSmall-uBig)/(1-uBig) in the paper — is taken as
// Poisson(λ = (n-2)·Pji), and all t survival terms come from one O(t)
// recurrence.
func jointTopProb(pmfBig []float64, vSmall, uBig float64, t, n int) float64 {
	if t <= 0 || t >= n {
		return 0
	}
	pji := numeric.ClampUnit((vSmall - uBig) / (1 - uBig))
	lambda := float64(n-2) * pji
	// surv[m] = P{Poisson(lambda) >= m}, for m = 0..t-1.
	// surv[0] = 1; surv[m+1] = surv[m] - pmf(m).
	var acc numeric.KahanSum
	surv := 1.0
	pmf := numeric.PoissonPMF(0, lambda)
	for m := 0; m < t; m++ {
		// Weight pairing: m = t-k-1  =>  k = t-1-m.
		w := pmfBig[t-1-m]
		if w != 0 {
			acc.Add(w * surv)
		}
		surv -= pmf
		if surv < 0 {
			surv = 0
		}
		pmf *= lambda / float64(m+1)
	}
	return numeric.ClampUnit(acc.Sum())
}
