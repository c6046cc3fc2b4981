package numeric

import (
	"math"
	"testing"
)

func TestQuadPolynomialAndExp(t *testing.T) {
	var q Quad
	// The 15-point Kronrod rule is exact far beyond degree 7.
	poly := func(x float64) float64 { return 8*math.Pow(x, 7) - 3*x*x + 1 }
	if got, want := q.Integrate(poly, 1e-12, 0, 2), 256.0-8+2; !almostEqual(got, want, 1e-13) {
		t.Errorf("polynomial: %.15g, want %g", got, want)
	}
	if got, want := q.Integrate(math.Exp, 1e-12, 0, 1), math.E-1; !almostEqual(got, want, 1e-14) {
		t.Errorf("exp: %.15g, want %.15g", got, want)
	}
}

// The integrand the models hand it: an erfc front at the left edge of a
// range a thousand front-widths long. Seeded with the front's extent the
// tolerance is met in a handful of intervals; unseeded it is still met, by
// bisecting down to the front.
func TestQuadFrontAtTheEdge(t *testing.T) {
	const width = 0.01
	f := func(x float64) float64 { return 0.5 * math.Erfc(x/width) }
	want := width / (2 * math.SqrtPi) // ∫_0^∞ ½erfc(x/w) dx
	var q Quad
	for _, breaks := range [][]float64{
		{0, 2.5 * width, 5.5 * width, 10},
		{0, 10},
	} {
		evals := 0
		got := q.Integrate(func(x float64) float64 { evals++; return f(x) }, 1e-9, breaks...)
		if !almostEqual(got, want, 1e-9) {
			t.Errorf("breaks %v: %.12g, want %.12g", breaks, got, want)
		}
		t.Logf("breaks %v: %d evaluations", breaks, evals)
	}
}

func TestQuadDegenerateRanges(t *testing.T) {
	var q Quad
	if got := q.Integrate(math.Exp, 1e-9, 2, 2); got != 0 {
		t.Errorf("empty range: %g", got)
	}
	if got := q.Integrate(math.Exp, 1e-9); got != 0 {
		t.Errorf("no range: %g", got)
	}
	// Coincident seeds are skipped, not integrated as empty intervals.
	a := q.Integrate(math.Exp, 1e-12, 0, 0, 0.5, 0.5, 1, 1)
	b := q.Integrate(math.Exp, 1e-12, 0, 0.5, 1)
	if a != b {
		t.Errorf("coincident seeds changed the result: %.17g vs %.17g", a, b)
	}
}

// A NaN integrand comes back as NaN after the first pass; a step function —
// which no polynomial rule converges on — comes back with an estimate once
// the interval budget is spent, not never.
func TestQuadTerminates(t *testing.T) {
	var q Quad
	evals := 0
	if got := q.Integrate(func(float64) float64 { evals++; return math.NaN() }, 1e-9, 0, 1); !math.IsNaN(got) {
		t.Errorf("integral of NaN = %g", got)
	}
	if evals != 15 {
		t.Errorf("%d evaluations of a NaN integrand, want 15", evals)
	}
	evals = 0
	step := func(x float64) float64 { evals++; return math.Floor(64 * x) }
	got := q.Integrate(step, 1e-15, 0, 1)
	if want := 31.5; !almostEqual(got, want, 1e-3) {
		t.Errorf("step function: %g, want about %g", got, want)
	}
	if limit := 15 * (2*quadMaxIntervals + 1); evals > limit {
		t.Errorf("%d evaluations of a step function, budget %d", evals, limit)
	}
}

// One Quad serves a sequence of integrals: the result of a call does not
// depend on what the value integrated before.
func TestQuadReuse(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-x*x) * (1 + math.Sin(3*x)) }
	var fresh, used Quad
	want := fresh.Integrate(f, 1e-10, 0, 1, 6)
	used.Integrate(math.Exp, 1e-12, 0, 0.1, 5)
	if got := used.Integrate(f, 1e-10, 0, 1, 6); got != want {
		t.Errorf("reused Quad: %.17g, fresh %.17g", got, want)
	}
}
