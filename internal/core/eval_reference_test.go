package core

import (
	"math"

	"flowrank/internal/numeric"
)

// The reference evaluator: the inner integrals exactly as they stood before
// the size-space evaluator replaced them — adaptive Simpson in logarithmic
// quantile space over whatever the integrand happens to be (step functions
// included), absolute tolerance 1e-13, depth 48 — under the unchanged outer
// Gauss–Legendre panels. Slow and, on a two-component mixture, not
// guaranteed to return; TestEvalMatchesReference holds the evaluator in
// eval.go to it.

// refEval is a modelEval whose hybrid kernel remembers its integer pairs:
// the reference quadrature asks for one pair of whole-packet sizes millions
// of times per metric, where the cell walks in eval.go ask once. One per
// outer worker, like the modelEval it wraps.
type refEval struct {
	*modelEval
	memo map[[2]int]float64
}

func (m Model) newRefEval(p float64) refEval {
	return refEval{m.newEval(p), map[[2]int]float64{}}
}

func (e refEval) kernel(small, large float64) float64 {
	if e.m.Kernel != KernelHybrid || e.p*small >= hybridThreshold {
		return e.modelEval.kernel(small, large)
	}
	key := [2]int{roundSize(small), roundSize(large)}
	v, ok := e.memo[key]
	if !ok {
		v = e.modelEval.kernel(small, large)
		e.memo[key] = v
	}
	return v
}

// refInnerTol is the absolute adaptive-quadrature tolerance the inner
// integrals used.
const refInnerTol = 1e-13

// refRankingMetric is Model.RankingMetric over the reference integrals.
func refRankingMetric(m Model, p float64) float64 {
	uhi := m.uHi()
	integral := m.integrateOuter(func() numeric.Func1 {
		ev := m.newRefEval(p)
		return func(w float64) float64 {
			u := w * uhi
			if u <= 0 {
				u = math.SmallestNonzeroFloat64
			}
			x := m.Dist.QuantileCCDF(u)
			below := TopProb(u, m.T, m.N-1, m.PoissonTails) * ev.refInnerBelow(u, x)
			var above float64
			if m.T > 1 {
				above = TopProb(u, m.T-1, m.N-1, m.PoissonTails) * ev.refInnerAbove(u, x)
			}
			return below + above
		}
	}) * uhi
	n, t := float64(m.N), float64(m.T)
	return (2*n - t - 1) / 2 * n * integral
}

// refDetectionMetric is Model.DetectionMetric over the reference integrals.
func refDetectionMetric(m Model, p float64) float64 {
	uhi := m.uHi()
	integral := m.integrateOuter(func() numeric.Func1 {
		ev := m.newRefEval(p)
		pmfBig := make([]float64, 0, m.T)
		return func(w float64) float64 {
			u := w * uhi
			if u <= 0 {
				u = math.SmallestNonzeroFloat64
			}
			x := m.Dist.QuantileCCDF(u)
			pmfBig = topPMF(pmfBig, u, m.T, m.N, m.PoissonTails)
			return ev.refInnerDetect(pmfBig, u, x)
		}
	}) * uhi
	n := float64(m.N)
	return n * (n - 1) * integral
}

// refInnerBelow computes ∫_u^1 Pm(y(v), x) dv — the misranking mass against
// all flows smaller than x — in logarithmic quantile space v = u·e^s, which
// resolves both the sharp erfc kernel near y ≈ x and the slowly varying
// bulk of small flows with one adaptive rule.
func (e refEval) refInnerBelow(u, x float64) float64 {
	if u >= 1 {
		return 0
	}
	smax := math.Log(1 / u)
	f := func(s float64) float64 {
		v := u * math.Exp(s)
		if v > 1 {
			v = 1
		}
		y := e.m.Dist.QuantileCCDF(v)
		return v * e.kernel(y, x)
	}
	return numeric.AdaptiveSimpson(f, 0, smax, refInnerTol, 48)
}

// refInnerAbove computes ∫_{vcut}^u Pm(x, y(v)) dv — the misranking mass
// against larger flows — again in logarithmic quantile space v = u·e^{-s}.
// The integral is truncated at the size beyond which the kernel is below
// ~1e-18 (larger flows are essentially never outranked by x).
func (e refEval) refInnerAbove(u, x float64) float64 {
	// Solve (y-x)/sqrt(2(1/p-1)(x+y)) = z* for y = x + Δ:
	// Δ² = 2 z*² (1/p-1) (2x + Δ).
	const zstar = 6.5 // erfc(6.5) ≈ 3e-20
	c2 := 2 * zstar * zstar * (1/e.p - 1)
	delta := (c2 + math.Sqrt(c2*c2+8*c2*x)) / 2
	vcut := e.m.Dist.CCDF(x + delta)
	if vcut < u*1e-30 {
		vcut = u * 1e-30
	}
	if vcut >= u {
		return 0
	}
	smax := math.Log(u / vcut)
	f := func(s float64) float64 {
		v := u * math.Exp(-s)
		y := e.m.Dist.QuantileCCDF(v)
		return v * e.kernel(x, y)
	}
	return numeric.AdaptiveSimpson(f, 0, smax, refInnerTol, 48)
}

// refInnerDetect computes ∫_u^1 P*t(v, u) · Pm(y(v), x) dv for the detection
// model: misranking of x (a top-T candidate) against smaller flows,
// weighted by the probability that the pair actually straddles the top-T
// boundary.
func (e refEval) refInnerDetect(pmfBig []float64, u, x float64) float64 {
	if u >= 1 {
		return 0
	}
	smax := math.Log(1 / u)
	f := func(s float64) float64 {
		v := u * math.Exp(s)
		if v > 1 {
			v = 1
		}
		y := e.m.Dist.QuantileCCDF(v)
		kern := e.kernel(y, x)
		if kern == 0 {
			return 0
		}
		return v * kern * JointTopProb(pmfBig, v, u, e.m.T, e.m.N, e.m.PoissonTails)
	}
	return numeric.AdaptiveSimpson(f, 0, smax, refInnerTol, 48)
}
