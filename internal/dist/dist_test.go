package dist

import (
	"math"
	"testing"

	"flowrank/internal/randx"
)

// laws returns one representative of every continuous law plus the two
// combinators, covering heavy, bounded, light, stretched and short tails.
// smoothMixture is the two-class mixture of continuous laws — mostly
// mice, a Pareto elephant class — the law and mixture suites share.
func smoothMixture(t *testing.T) *Mixture {
	t.Helper()
	mix, err := NewMixture(
		Component{Weight: 3, Dist: ExponentialWithMean(1, 4)},
		Component{Weight: 1, Dist: ParetoWithMean(40, 1.8)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

func laws(t *testing.T) []SizeDist {
	t.Helper()
	return []SizeDist{
		ParetoWithMean(9.6, 1.5),
		Pareto{Scale: 1, Shape: 2},
		BoundedPareto{Scale: 3.2, Max: 1e6, Shape: 1.5},
		BoundedPareto{Scale: 2, Max: 5000, Shape: 1}, // the α = 1 special case
		ExponentialWithMean(1, 9.6),
		Weibull{Min: 1, Lambda: 8, K: 1.4},
		Weibull{Min: 1, Lambda: 5, K: 0.7}, // stretched exponential
		Lognormal{Min: 1, Mu: 1.2, Sigma: 1.1},
		smoothMixture(t),
	}
}

// stepLaws returns one representative of every discrete (step-CCDF) law
// in the exact shapes the inversion subsystem (internal/invert) produces:
// a rescaled empirical sample (naive scaling), a weighted Discrete over a
// support grid (EM), a discretized parametric law, and an empirical body
// spliced with a Pareto tail (tail scaling). They share the law property
// suite except the exact CCDF/quantile inversion, which for step CCDFs
// weakens to the generalized-inverse sandwich.
func stepLaws(t *testing.T) []SizeDist {
	t.Helper()
	g := randx.New(9)
	body := make([]float64, 400)
	for i := range body {
		body[i] = math.Round(ExponentialWithMean(1, 20).Rand(g))
	}
	spliced, err := NewMixture(
		Component{Weight: 0.95, Dist: NewDiscrete(Tally(body))},
		Component{Weight: 0.05, Dist: Pareto{Scale: 120, Shape: 1.6}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return []SizeDist{
		NewDiscrete(Tally([]float64{10, 20, 20, 30, 70, 200, 1100})),
		NewDiscrete([]float64{1, 2, 5, 17, 80, 4000}, []float64{0.35, 0.3, 0.2, 0.1, 0.04, 0.01}),
		NewDiscreteFromPMF(Discretize(ParetoWithMean(9.6, 1.5), 300)),
		spliced,
	}
}

// allLaws is every law, continuous and step, for the shared properties.
func allLaws(t *testing.T) []SizeDist {
	t.Helper()
	return append(laws(t), stepLaws(t)...)
}

// uGrid spans twelve decades of upper-tail probability.
var uGrid = []float64{1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}

func TestCCDFMonotoneNonIncreasing(t *testing.T) {
	for _, d := range allLaws(t) {
		// Probe sizes across the whole quantile range plus the edges.
		xs := []float64{0, 0.5, 1}
		for _, u := range uGrid {
			xs = append(xs, d.QuantileCCDF(u))
		}
		for i := range xs {
			for j := range xs {
				ci, cj := d.CCDF(xs[i]), d.CCDF(xs[j])
				if ci < 0 || ci > 1 {
					t.Fatalf("%s: CCDF(%g) = %g outside [0,1]", d, xs[i], ci)
				}
				if xs[i] < xs[j] && ci < cj-1e-14 {
					t.Errorf("%s: CCDF increases: CCDF(%g)=%g < CCDF(%g)=%g",
						d, xs[i], ci, xs[j], cj)
				}
			}
		}
	}
}

func TestQuantileCCDFInvertsCCDF(t *testing.T) {
	for _, d := range laws(t) {
		for _, u := range uGrid {
			if u >= 1 {
				continue // the support minimum, where CCDF jumps to 1
			}
			x := d.QuantileCCDF(u)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s: QuantileCCDF(%g) = %g", d, u, x)
			}
			got := d.CCDF(x)
			if math.Abs(got-u) > 1e-6*u+1e-15 {
				t.Errorf("%s: CCDF(QuantileCCDF(%g)) = %g", d, u, got)
			}
		}
	}
}

// TestQuantileCCDFSandwichOnStepLaws is the step-CCDF version of the
// inversion property: the generalized inverse x = QuantileCCDF(u) cannot
// hit CCDF(x) = u exactly at a jump, so the property weakens to the
// sandwich CCDF(x + eps) <= u <= CCDF(x - eps) — the returned point
// straddles the jump where the CCDF crosses u (bisection on a mixture may
// land within a ulp on either side of the atom, hence probing both sides).
func TestQuantileCCDFSandwichOnStepLaws(t *testing.T) {
	for _, d := range stepLaws(t) {
		for _, u := range uGrid {
			x := d.QuantileCCDF(u)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s: QuantileCCDF(%g) = %g", d, u, x)
			}
			eps := 1e-9 * math.Max(1, math.Abs(x))
			if c := d.CCDF(x + eps); c > u+1e-9 {
				t.Errorf("%s: CCDF(%g + eps) = %g above u = %g", d, x, c, u)
			}
			if c := d.CCDF(x - eps); c < math.Min(u, 1)-1e-9 {
				t.Errorf("%s: CCDF(%g - eps) = %g below u = %g", d, x, c, u)
			}
		}
	}
}

func TestQuantileCCDFMonotoneNonIncreasing(t *testing.T) {
	for _, d := range allLaws(t) {
		prev := math.Inf(1)
		for _, u := range uGrid {
			x := d.QuantileCCDF(u)
			if x > prev*(1+1e-12) {
				t.Errorf("%s: QuantileCCDF(%g) = %g above previous %g", d, u, x, prev)
			}
			prev = x
		}
	}
}

func TestRandMeansConvergeToMean(t *testing.T) {
	// Sample means under a fixed seed must land on Mean(). Pareto-family
	// tails with beta <= 2 have infinite variance, so their band is the
	// generous one the tracegen calibration test also uses; the
	// finite-variance laws get a tight band.
	for i, d := range allLaws(t) {
		g := randx.New(uint64(1000 + i))
		const n = 300_000
		var sum float64
		for j := 0; j < n; j++ {
			v := d.Rand(g)
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("%s: Rand returned %g", d, v)
			}
			sum += v
		}
		mean := sum / n
		want := d.Mean()
		tol := 0.05 * want
		switch v := d.(type) {
		case Pareto:
			if v.Shape <= 2 {
				tol = 0.35 * want
			}
		case *Mixture:
			tol = 0.2 * want // Pareto(1.8) component: infinite variance
		}
		if math.Abs(mean-want) > tol {
			t.Errorf("%s: sample mean %g, want %g (±%g)", d, mean, want, tol)
		}
	}
}

func TestRandDeterministicGivenSeed(t *testing.T) {
	for _, d := range allLaws(t) {
		a, b := randx.New(42), randx.New(42)
		for j := 0; j < 100; j++ {
			if va, vb := d.Rand(a), d.Rand(b); va != vb {
				t.Fatalf("%s: draw %d differs under equal seeds: %g vs %g", d, j, va, vb)
			}
		}
	}
}

func TestRandRespectsSupportMinimum(t *testing.T) {
	for _, d := range allLaws(t) {
		lo := d.QuantileCCDF(1)
		g := randx.New(7)
		for j := 0; j < 10_000; j++ {
			if v := d.Rand(g); v < lo-1e-12 {
				t.Fatalf("%s: draw %g below support minimum %g", d, v, lo)
			}
		}
	}
}

func TestConstructorCalibration(t *testing.T) {
	if d := ParetoWithMean(9.6, 1.5); math.Abs(d.Mean()-9.6) > 1e-12 || math.Abs(d.Scale-3.2) > 1e-12 {
		t.Errorf("ParetoWithMean(9.6, 1.5) = %s, mean %g", d, d.Mean())
	}
	if d := ExponentialWithMean(1, 9.6); math.Abs(d.Mean()-9.6) > 1e-12 || d.Min != 1 {
		t.Errorf("ExponentialWithMean(1, 9.6) = %s, mean %g", d, d.Mean())
	}
	if m := (Pareto{Scale: 1, Shape: 0.9}).Mean(); !math.IsInf(m, 1) {
		t.Errorf("Pareto shape 0.9 mean = %g, want +Inf", m)
	}
	mustPanic(t, func() { ParetoWithMean(9.6, 1) })
	mustPanic(t, func() { ExponentialWithMean(5, 5) })
}

func TestHeavyTailDominatesLightTail(t *testing.T) {
	// At equal means, the paper's §6.2 ordering: deep quantiles of the
	// Pareto dwarf the exponential's.
	heavy := ParetoWithMean(9.6, 1.5)
	light := ExponentialWithMean(1, 9.6)
	if h, l := heavy.QuantileCCDF(1e-6), light.QuantileCCDF(1e-6); h < 20*l {
		t.Errorf("Pareto 1e-6 quantile %g should dwarf exponential %g", h, l)
	}
}

func TestBoundedParetoRespectsBounds(t *testing.T) {
	d := BoundedPareto{Scale: 3.2, Max: 1e4, Shape: 1.5}
	if d.CCDF(1e4) != 0 || d.CCDF(3.2) != 1 {
		t.Error("CCDF wrong at the support edges")
	}
	if q := d.QuantileCCDF(1e-300); q > 1e4 {
		t.Errorf("quantile %g beyond Max", q)
	}
	unbounded := Pareto{Scale: 3.2, Shape: 1.5}
	if d.Mean() >= unbounded.Mean() {
		t.Errorf("truncated mean %g should be below unbounded %g", d.Mean(), unbounded.Mean())
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
