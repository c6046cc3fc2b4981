package core

import (
	"math"
	"testing"

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
	return adaptiveSimpson(f, 0, smax, refInnerTol, 48)
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
	return adaptiveSimpson(f, 0, smax, refInnerTol, 48)
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
	return adaptiveSimpson(f, 0, smax, refInnerTol, 48)
}

// adaptiveSimpson integrates f over [a, b] with the classic recursive
// Simpson rule and Richardson acceptance test: the reference evaluator's
// inner rule, kept here because nothing else integrates this way. tol is
// an absolute error target for the whole interval; maxDepth bounds
// recursion (each level halves the interval).
func adaptiveSimpson(f numeric.Func1, a, b, tol float64, maxDepth int) float64 {
	if a == b {
		return 0
	}
	if a > b {
		return -adaptiveSimpson(f, b, a, tol, maxDepth)
	}
	fa, fb := f(a), f(b)
	m := 0.5 * (a + b)
	fm := f(m)
	whole := simpson(a, b, fa, fm, fb)
	return adaptiveSimpsonAux(f, a, b, fa, fm, fb, whole, tol, maxDepth)
}

func simpson(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpsonAux(f numeric.Func1, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
	m := 0.5 * (a + b)
	lm := 0.5 * (a + m)
	rm := 0.5 * (m + b)
	flm, frm := f(lm), f(rm)
	left := simpson(a, m, fa, flm, fm)
	right := simpson(m, b, fm, frm, fb)
	delta := left + right - whole
	// Written as a negation so that a NaN estimate stops the recursion
	// (and propagates) instead of refining a broken integrand to maxDepth.
	if depth <= 0 || !(math.Abs(delta) > 15*tol) {
		return left + right + delta/15
	}
	return adaptiveSimpsonAux(f, a, m, fa, flm, fm, left, tol/2, depth-1) +
		adaptiveSimpsonAux(f, m, b, fm, frm, fb, right, tol/2, depth-1)
}

func TestAdaptiveSimpsonPolynomial(t *testing.T) {
	// Simpson is exact for cubics.
	f := func(x float64) float64 { return 3*x*x - 2*x + 1 }
	got := adaptiveSimpson(f, 0, 2, 1e-12, 30)
	want := 8.0 - 4.0 + 2.0
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("integral = %g, want %g", got, want)
	}
}

func TestAdaptiveSimpsonExp(t *testing.T) {
	got := adaptiveSimpson(math.Exp, 0, 1, 1e-12, 40)
	want := math.E - 1
	if !almostEqual(got, want, 1e-11) {
		t.Errorf("integral = %.15g, want %.15g", got, want)
	}
}

func TestAdaptiveSimpsonReversedInterval(t *testing.T) {
	got := adaptiveSimpson(math.Exp, 1, 0, 1e-12, 40)
	want := -(math.E - 1)
	if !almostEqual(got, want, 1e-11) {
		t.Errorf("reversed integral = %g, want %g", got, want)
	}
}

func TestAdaptiveSimpsonEmptyInterval(t *testing.T) {
	if got := adaptiveSimpson(math.Exp, 2, 2, 1e-12, 40); got != 0 {
		t.Errorf("empty interval integral = %g, want 0", got)
	}
}

// A NaN integrand must come back as NaN after the first refinement, not
// after 2^maxDepth of them.
func TestAdaptiveSimpsonNaNTerminates(t *testing.T) {
	evals := 0
	f := func(float64) float64 { evals++; return math.NaN() }
	if got := adaptiveSimpson(f, 0, 1, 1e-12, 40); !math.IsNaN(got) {
		t.Errorf("integral of NaN = %g", got)
	}
	if evals > 5 {
		t.Errorf("%d evaluations of a NaN integrand, want 5", evals)
	}
}

func TestAdaptiveSimpsonSharpGaussian(t *testing.T) {
	// A narrow Gaussian centred mid-interval; integral over R is sqrt(pi)*s.
	s := 0.01
	f := func(x float64) float64 { return math.Exp(-(x - 0.5) * (x - 0.5) / (s * s)) }
	got := adaptiveSimpson(f, 0, 1, 1e-14, 50)
	want := math.SqrtPi * s
	if !almostEqual(got, want, 1e-8) {
		t.Errorf("narrow gaussian integral = %g, want %g", got, want)
	}
}

func TestGaussLegendreAgainstSimpson(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(3*x) * math.Exp(-x) }
	want := adaptiveSimpson(f, 0, 4, 1e-13, 50)
	for _, n := range []int{16, 32, 64} {
		got := numeric.GaussLegendre(f, 0, 4, n)
		if !almostEqual(got, want, 1e-10) {
			t.Errorf("GL%d = %.14g, want %.14g", n, got, want)
		}
	}
}

func BenchmarkAdaptiveSimpson(b *testing.B) {
	f := func(x float64) float64 { return math.Exp(-x*x) * math.Cos(4*x) }
	for i := 0; i < b.N; i++ {
		_ = adaptiveSimpson(f, -3, 3, 1e-10, 40)
	}
}
