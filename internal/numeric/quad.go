package numeric

import (
	"math"
	"sync"
)

// Func1 is a scalar function of one variable.
type Func1 func(x float64) float64

// AdaptiveSimpson integrates f over [a, b] with the classic recursive
// Simpson rule and Richardson acceptance test. tol is an absolute error
// target for the whole interval; maxDepth bounds recursion (each level
// halves the interval). The routine is robust to integrands with isolated
// sharp features as long as the initial interval is reasonably bracketed;
// callers that know where a kernel concentrates should split the interval
// themselves (see internal/core).
func AdaptiveSimpson(f Func1, a, b, tol float64, maxDepth int) float64 {
	if a == b {
		return 0
	}
	if a > b {
		return -AdaptiveSimpson(f, b, a, tol, maxDepth)
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

func adaptiveSimpsonAux(f Func1, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
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

// GaussLegendre integrates f over [a, b] with an n-point Gauss-Legendre
// rule. Nodes and weights for commonly used orders are cached after the
// first computation; arbitrary n >= 2 is supported.
//
// It is exactly GaussLegendreSum applied to f evaluated at GLPoint(a, b,
// i, n) for each i, so callers that evaluate the nodes themselves (for
// example in parallel) and reduce with GaussLegendreSum obtain the
// bit-identical integral.
func GaussLegendre(f Func1, a, b float64, n int) float64 {
	nodes, weights := GLNodes(n)
	halfLen := 0.5 * (b - a)
	mid := 0.5 * (a + b)
	var s KahanSum
	for i, x := range nodes {
		s.Add(weights[i] * f(mid+halfLen*x))
	}
	return halfLen * s.Sum()
}

// GLPoint returns the i-th mapped node of the n-point Gauss-Legendre rule
// on [a, b] — the abscissa GaussLegendre evaluates its integrand at.
func GLPoint(a, b float64, i, n int) float64 {
	nodes, _ := GLNodes(n)
	return 0.5*(a+b) + 0.5*(b-a)*nodes[i]
}

// GaussLegendreSum reduces precomputed integrand values at the n mapped
// nodes of [a, b] to the Gauss-Legendre integral, using the same
// compensated summation order as GaussLegendre: the result is bit-equal
// to GaussLegendre on an integrand returning those values.
func GaussLegendreSum(a, b float64, vals []float64, n int) float64 {
	_, weights := GLNodes(n)
	halfLen := 0.5 * (b - a)
	var s KahanSum
	for i, w := range weights {
		s.Add(w * vals[i])
	}
	return halfLen * s.Sum()
}

var (
	glMu    sync.RWMutex
	glCache = map[int]glRule{}
)

type glRule struct {
	nodes   []float64
	weights []float64
}

// GLNodes returns the nodes and weights of the n-point Gauss-Legendre rule
// on [-1, 1], computing them by Newton iteration on the Legendre polynomial
// and caching the result. The returned slices must not be modified.
func GLNodes(n int) (nodes, weights []float64) {
	if n < 2 {
		n = 2
	}
	glMu.RLock()
	r0, ok := glCache[n]
	glMu.RUnlock()
	if ok {
		return r0.nodes, r0.weights
	}
	r := glRule{
		nodes:   make([]float64, n),
		weights: make([]float64, n),
	}
	m := (n + 1) / 2
	for i := 0; i < m; i++ {
		// Chebyshev-like initial guess for the i-th root.
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for iter := 0; iter < 100; iter++ {
			p0, p1 := 1.0, 0.0
			for j := 0; j < n; j++ {
				p2 := p1
				p1 = p0
				p0 = ((2*float64(j)+1)*x*p1 - float64(j)*p2) / (float64(j) + 1)
			}
			// Derivative of the Legendre polynomial at x.
			pp = float64(n) * (x*p0 - p1) / (x*x - 1)
			dx := p0 / pp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		r.nodes[i] = -x
		r.nodes[n-1-i] = x
		w := 2 / ((1 - x*x) * pp * pp)
		r.weights[i] = w
		r.weights[n-1-i] = w
	}
	glMu.Lock()
	glCache[n] = r
	glMu.Unlock()
	return r.nodes, r.weights
}
