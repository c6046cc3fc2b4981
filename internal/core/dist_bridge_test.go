package core

import (
	"math"
	"testing"

	"flowrank/internal/dist"
)

// discretize projects a continuous size law onto the integer packet
// counts 1..max, in the layout DiscreteModel sums over: pmf[s] is P{S
// rounds to s packets}, pmf[0] = 0, and the whole tail beyond max is
// folded into pmf[max] so the result sums to one. The rounding matches the
// simulators (tracegen rounds continuous draws to the nearest integer and
// clamps to >= 1 packet): size s collects the mass on (s-½, s+½], and
// everything at or below 1½ becomes a 1-packet flow.
func discretize(d dist.SizeDist, max int) []float64 {
	pmf := make([]float64, max+1)
	above := 1.0 // P{S > s-½}
	for s := 1; s < max; s++ {
		next := d.CCDF(float64(s) + 0.5)
		pmf[s] = math.Max(above-next, 0) // a flat CCDF's numerical noise
		above = next
	}
	pmf[max] = above
	return pmf
}

// discretized is discretize(d, max) as a law: a Discrete over the sizes
// 1..max.
func discretized(d dist.SizeDist, max int) *dist.Discrete {
	sizes := make([]float64, max)
	for i := range sizes {
		sizes[i] = float64(i + 1)
	}
	return dist.NewDiscrete(sizes, discretize(d, max)[1:])
}

// TestDiscretizedLawMatchesContinuousModel ties the discretized view of a
// law to both model evaluators: on a bounded law the DiscreteModel run on
// discretize(d, ·) must agree with the continuous
// quadrature Model on d. The hybrid kernel makes the two kernels
// comparable (exact binomial where the Gaussian breaks); the residual gap
// is the integer rounding of the sizes.
func TestDiscretizedLawMatchesContinuousModel(t *testing.T) {
	d := dist.BoundedPareto{Scale: 2, Max: 120, Shape: 1.5}
	pmf := discretize(d, 130)

	n, topT := 1500, 3
	dm := DiscreteModel{PMF: pmf, N: n, T: topT}
	if err := dm.Validate(); err != nil {
		t.Fatalf("discretized law rejected by DiscreteModel: %v", err)
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
// the two combinator-style laws the subsystem adds beyond the seed, a
// mixture and a sample's empirical law (a Discrete over its tally): the
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
	m := Model{N: 20000, T: 5, Dist: mix}
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
