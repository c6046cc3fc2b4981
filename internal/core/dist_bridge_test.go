package core

import (
	"testing"

	"flowrank/internal/dist"
)

// TestDiscretizedLawMatchesContinuousModel ties the dist layer's
// Discretize adapter to both model evaluators: on a bounded law the
// DiscreteModel run on Discretize(d, ·) must agree with the continuous
// quadrature Model on d. The hybrid kernel makes the two kernels
// comparable (exact binomial where the Gaussian breaks); the residual gap
// is the integer rounding of the sizes.
func TestDiscretizedLawMatchesContinuousModel(t *testing.T) {
	d := dist.BoundedPareto{Scale: 2, Max: 120, Shape: 1.5}
	pmf := dist.Discretize(d, 130)

	n, topT := 1500, 3
	dm := DiscreteModel{PMF: pmf, N: n, T: topT}
	if err := dm.Validate(); err != nil {
		t.Fatalf("Discretize output rejected by DiscreteModel: %v", err)
	}
	cm := Model{N: n, T: topT, Dist: d, Kernel: KernelHybrid}

	for _, p := range []float64{0.25} {
		dr, dd := bothMetrics(dm, p)
		if cr := cm.RankingMetric(p); !almostEqual(dr, cr, 0.1) {
			t.Errorf("p=%g ranking: discrete %g vs continuous %g", p, dr, cr)
		}
		if cd := cm.DetectionMetric(p); !almostEqual(dd, cd, 0.1) {
			t.Errorf("p=%g detection: discrete %g vs continuous %g", p, dd, cd)
		}
	}
}

// TestModelAcceptsMixtureAndEmpirical runs the quadrature end-to-end on
// the two combinator-style laws the subsystem adds beyond the seed: the
// metrics must stay finite, ordered (detection <= ranking) and decreasing
// in p.
func TestModelAcceptsMixtureAndEmpirical(t *testing.T) {
	mix, err := dist.NewMixture(
		dist.Component{Weight: 0.9, Dist: dist.ExponentialWithMean(1, 4)},
		dist.Component{Weight: 0.1, Dist: dist.ParetoWithMean(60, 1.6)},
	)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{N: 20000, T: 5, Dist: mix, PoissonTails: true}
	prev := 1e300
	for _, p := range []float64{0.02, 0.1, 0.5} {
		r, dv := m.RankingMetric(p), m.DetectionMetric(p)
		if !(r >= 0 && r < 1e300) || !(dv >= 0) {
			t.Fatalf("mixture: degenerate metrics r=%g d=%g at p=%g", r, dv, p)
		}
		if dv > r*1.001 {
			t.Errorf("mixture: detection %g above ranking %g at p=%g", dv, r, p)
		}
		if r > prev*1.001 {
			t.Errorf("mixture: ranking not decreasing at p=%g", p)
		}
		prev = r
	}
}
