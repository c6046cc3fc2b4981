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
//
// The sum runs over the smaller flow's sampled size and keeps ten standard
// deviations (plus 20 terms) either side of its mean, dropping about 1e-23
// of mass; both binomial series advance incrementally from the lower end.
// Where p·s1 is a few packets — the hybrid kernel's regime, where the
// Gaussian approximation fails — that is a few dozen terms whatever the
// flow sizes.
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
	case s1 == s2:
		return misrankEqual(s1, p)
	}
	q := 1 - p
	mu := p * float64(s1)
	sd := math.Sqrt(mu * q)
	lo := int(mu-10*sd) - 20
	if lo < 0 {
		lo = 0
	}
	hi := exactWindow(s1, p)
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
	return numeric.ClampUnit(acc.Sum())
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

// misrankEqual is MisrankExact's equal-size case, 1 − Σ_{i>=1} b_p(i,s)²,
// with the series truncated around the mean like the unequal one:
// O(sqrt(p·s)) terms.
func misrankEqual(s int, p float64) float64 {
	q := 1 - p
	mu := p * float64(s)
	lo := int(mu-10*math.Sqrt(mu*q)) - 20
	if lo < 1 {
		lo = 1
	}
	hi := exactWindow(s, p)
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

// exactWindow returns the largest sampled size of an s-packet flow that
// MisrankExact keeps: ten standard deviations past the mean. The
// row forms below keep every sampled size from 0 up to it — they are used
// where p·s is a few packets, so the window is a few dozen terms and its
// lower end is 0 anyway.
func exactWindow(s int, p float64) int {
	mu := p * float64(s)
	hi := int(mu+10*math.Sqrt(mu*(1-p))) + 20
	if hi > s {
		hi = s
	}
	return hi
}

// aboveRow is the row form of MisrankExact for a fixed smaller flow:
// after start(s1, p), the k-th call of next returns MisrankExact(s1,
// s1+k, p). Summing the hybrid kernel over the integer sizes above s1 needs
// thousands of consecutive cells of one row, each asked for once; the row
// advances the larger flow's sampled-size pmf from Binomial(s2, p) to
// Binomial(s2+1, p) by pmf'(i) = q·pmf(i) + p·pmf(i−1) — all terms
// positive, so nothing cancels over a long walk — which is O(window) per
// cell with no lgamma. The sampled-size pmf of the fixed flow stays
// available as pmf1 for the continued kernel.
type aboveRow struct {
	p, q float64
	pmf1 []float64 // P{Bin(s1,p) = i}, i = 0..window
	pmf2 []float64 // P{Bin(s2,p) = i} of the walking larger flow
}

func (r *aboveRow) start(s1 int, p float64) {
	r.p, r.q = p, 1-p
	hi := exactWindow(s1, p)
	r.pmf1 = append(r.pmf1[:0], make([]float64, hi+1)...)
	pmf := math.Exp(float64(s1) * math.Log1p(-p))
	for i := 0; i <= hi; i++ {
		r.pmf1[i] = pmf
		pmf *= float64(s1-i) * p / (float64(i+1) * r.q)
	}
	r.pmf2 = append(r.pmf2[:0], r.pmf1...)
}

func (r *aboveRow) next() float64 {
	var acc, cdf2, prev float64
	for i, old := range r.pmf2 {
		now := r.q*old + r.p*prev
		r.pmf2[i] = now
		prev = old
		cdf2 += now
		acc += r.pmf1[i] * cdf2
	}
	if acc > 1 {
		return 1
	}
	return acc
}

// continued returns the exact kernel of the row's fixed flow against a
// larger flow of real size y: P{Bin(y,p) <= i} continued to real y through
// the generalized binomial coefficient (it is the regularized incomplete
// beta function I_q(y−i, i+1)), so the value is analytic in y and equals
// MisrankExact at every integer. It is what a quadrature can be asked
// to integrate where the integer cells are too narrow to be worth summing.
func (r *aboveRow) continued(y float64) float64 {
	pmf2 := math.Exp(y * math.Log1p(-r.p))
	ratio := r.p / r.q
	var acc, cdf2 float64
	for i, pmf1 := range r.pmf1 {
		cdf2 += pmf2
		acc += pmf1 * cdf2
		pmf2 *= (y - float64(i)) / float64(i+1) * ratio
	}
	if acc > 1 {
		return 1
	}
	return acc
}

// belowRow is the row form for a fixed larger flow: after start(s2, p,
// last), the j-th call of next returns MisrankExact(j, s2, p), for
// j = 1..last < s2. The larger flow's sampled-size cdf is tabulated once;
// the smaller flow's pmf walks up one packet per call.
type belowRow struct {
	p, q float64
	cdf2 []float64 // P{Bin(s2,p) <= i}, i = 0..window of the last cell
	pmf1 []float64 // P{Bin(j,p) = i} of the walking smaller flow
	j    int
}

func (r *belowRow) start(s2 int, p float64, last int) {
	r.p, r.q, r.j = p, 1-p, 0
	hi := exactWindow(last, p)
	r.cdf2 = append(r.cdf2[:0], make([]float64, hi+1)...)
	pmf := math.Exp(float64(s2) * math.Log1p(-p))
	cdf := 0.0
	for i := 0; i <= hi; i++ {
		cdf += pmf
		r.cdf2[i] = math.Min(cdf, 1)
		pmf *= float64(s2-i) * p / (float64(i+1) * r.q)
	}
	r.pmf1 = append(r.pmf1[:0], make([]float64, hi+1)...)
	r.pmf1[0] = 1
}

func (r *belowRow) next() float64 {
	r.j++
	top := r.j
	if top >= len(r.pmf1) {
		top = len(r.pmf1) - 1
	}
	var acc, prev float64
	for i := 0; i <= top; i++ {
		old := r.pmf1[i]
		now := r.q*old + r.p*prev
		r.pmf1[i] = now
		prev = old
		acc += now * r.cdf2[i]
	}
	if acc > 1 {
		return 1
	}
	return acc
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
