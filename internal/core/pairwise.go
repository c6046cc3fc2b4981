package core

import (
	"fmt"
	"math"

	"flowrank/internal/numeric"
)

// MisrankExact returns the probability that random packet sampling at rate
// p misranks two flows of s1 and s2 packets — Eq. (1) of the paper.
//
// For s1 != s2 it is P{sampled(smaller) >= sampled(larger)}: sampled ties
// and the case where both flows vanish count as misranked. For s1 == s2 it
// is the paper's equal-size convention, 1 - P{s1 = s2 != 0}. The function
// is symmetric in its first two arguments.
func MisrankExact(s1, s2 int, p float64) float64 {
	if s1 > s2 {
		s1, s2 = s2, s1
	}
	switch {
	case s1 < 0:
		panic(fmt.Sprintf("core: negative flow size %d", s1))
	case p <= 0:
		return 1
	case p >= 1:
		return 0
	}
	if s1 == s2 {
		return misrankEqualExact(s1, p)
	}
	// P{x1 >= x2} = sum_i P{x1 = i} * P{x2 <= i}.
	var acc numeric.KahanSum
	for i := 0; i <= s1; i++ {
		pmf := numeric.BinomialPMF(i, s1, p)
		if pmf == 0 {
			continue
		}
		acc.Add(pmf * numeric.BinomialCDF(i, s2, p))
	}
	v := acc.Sum()
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// misrankEqualExact returns 1 - sum_{i>=1} b_p(i,s)^2, the probability that
// two equal-size flows are misranked (different sampled sizes, or both
// sampled to zero).
func misrankEqualExact(s int, p float64) float64 {
	var acc numeric.KahanSum
	for i := 1; i <= s; i++ {
		b := numeric.BinomialPMF(i, s, p)
		acc.Add(b * b)
	}
	v := 1 - acc.Sum()
	if v < 0 {
		return 0
	}
	return v
}

// MisrankGaussian returns the Normal approximation of the misranking
// probability — Eq. (2) of the paper. It accepts continuous sizes and is
// accurate once p*max(s1,s2) is at least a few packets (see Fig. 3).
func MisrankGaussian(s1, s2, p float64) float64 {
	switch {
	case p <= 0:
		return 1
	case p >= 1:
		if s1 == s2 {
			return 0 // deterministic equal counts, never swapped
		}
		return 0
	}
	delta := math.Abs(s2 - s1)
	scale := math.Sqrt(2 * (1/p - 1) * (s1 + s2))
	return numeric.ErfcRatio(delta, scale)
}

// GaussianAbsError returns |MisrankExact - MisrankGaussian| for integer
// sizes — the quantity plotted in Fig. 3.
func GaussianAbsError(s1, s2 int, p float64) float64 {
	return math.Abs(MisrankExact(s1, s2, p) - MisrankGaussian(float64(s1), float64(s2), p))
}

// misrankExactTrunc is MisrankExact with both binomial series evaluated
// incrementally and truncated ten standard deviations past the mean of the
// smaller flow's sampled size. It exists for the hybrid model kernel: in
// the regime p·s1 ≲ 10 where the Gaussian approximation fails, the exact
// sum has only O(p·s1 + sqrt(p·s1) + const) significant terms, so this is
// O(60) regardless of flow sizes.
func misrankExactTrunc(s1, s2 int, p float64) float64 {
	if s1 > s2 {
		s1, s2 = s2, s1
	}
	switch {
	case p <= 0:
		return 1
	case p >= 1:
		return 0
	case s1 == s2:
		return misrankEqualTrunc(s1, p)
	}
	q := 1 - p
	mu := p * float64(s1)
	sd := math.Sqrt(mu * q)
	lo := int(mu-10*sd) - 20
	if lo < 0 {
		lo = 0
	}
	hi := int(mu+10*sd) + 20
	if hi > s1 {
		hi = s1
	}
	// pmf1(i) over Binomial(s1, p), cdf2(i) over Binomial(s2, p), both
	// advanced incrementally from the lower truncation point (starting in
	// log space so large p·s does not underflow the i = 0 start). The
	// neglected head mass is below CDF1(lo-1) ~ 1e-23.
	pmf1 := math.Exp(numeric.LogBinomialPMF(lo, s1, p))
	pmf2 := math.Exp(numeric.LogBinomialPMF(lo, s2, p))
	cdf2 := numeric.BinomialCDF(lo, s2, p)
	var acc numeric.KahanSum
	for i := lo; i <= hi; i++ {
		acc.Add(pmf1 * cdf2)
		// advance both series from i to i+1
		pmf1 *= float64(s1-i) * p / (float64(i+1) * q)
		if i+1 <= s2 {
			pmf2 *= float64(s2-i) * p / (float64(i+1) * q)
			cdf2 += pmf2
			if cdf2 > 1 {
				cdf2 = 1
			}
		}
	}
	v := acc.Sum()
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// misrankEqualTrunc is the equal-size misranking probability with the
// series truncated around the mean, O(sqrt(p·s)) terms.
func misrankEqualTrunc(s int, p float64) float64 {
	q := 1 - p
	mu := p * float64(s)
	lo := int(mu-10*math.Sqrt(mu*q)) - 20
	if lo < 1 {
		lo = 1
	}
	hi := int(mu+10*math.Sqrt(mu*q)) + 20
	if hi > s {
		hi = s
	}
	pmf := math.Exp(numeric.LogBinomialPMF(lo, s, p))
	var acc numeric.KahanSum
	for i := lo; i <= hi; i++ {
		acc.Add(pmf * pmf)
		pmf *= float64(s-i) * p / (float64(i+1) * q)
	}
	v := 1 - acc.Sum()
	if v < 0 {
		return 0
	}
	return v
}

// RateMethod selects which misranking formula OptimalRate inverts.
type RateMethod int

const (
	// RateExact inverts the exact binomial formula, Eq. (1).
	RateExact RateMethod = iota
	// RateGaussian inverts the closed-form approximation, Eq. (2).
	RateGaussian
)

// OptimalRate returns the minimum sampling rate p such that the probability
// of misranking flows of s1 and s2 packets stays at or below target
// (the paper's p_d, solved for Figs. 1–2). The returned rate is in
// (0, 1]; if even p -> 1 cannot reach the target (never the case for the
// formulas here) an error is returned.
func OptimalRate(s1, s2 int, target float64, method RateMethod) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("core: target misranking probability %g outside (0,1)", target)
	}
	return optimalRate(func(p float64) float64 {
		if method == RateGaussian {
			return MisrankGaussian(float64(s1), float64(s2), p)
		}
		return MisrankExact(s1, s2, p)
	}, target)
}

// optimalRate finds where the misranking probability pm, decreasing in p,
// crosses target. Both ends of [1e-9, 1−1e-12] are evaluated once and
// handed to Brent with their values.
func optimalRate(pm func(p float64) float64, target float64) (float64, error) {
	const (
		pLo = 1e-9
		pHi = 1 - 1e-12
	)
	f := func(lp float64) float64 { return pm(math.Exp(lp)) - target }
	lo, hi := math.Log(pLo), math.Log(pHi)
	fLo := f(lo)
	if fLo <= 0 {
		return pLo, nil
	}
	fHi := f(hi)
	if fHi > 0 {
		return 0, fmt.Errorf("core: misranking probability at p≈1 still %g above target %g: %w", fHi, target, ErrTargetUnreachable)
	}
	lp, err := numeric.BrentBracket(f, lo, fLo, hi, fHi, 1e-10)
	if err != nil {
		return 0, fmt.Errorf("core: solving optimal rate: %w", err)
	}
	return math.Exp(lp), nil
}
