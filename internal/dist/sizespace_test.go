package dist

import (
	"math"
	"testing"

	"flowrank/internal/randx"
)

// TestRayMatchesQuantile holds every law's ray to its closed-form (or, for
// the combinators, table and step) quantile: the shortcut forms are an
// optimisation of QuantileCCDF(u·e^s), not a second definition.
func TestRayMatchesQuantile(t *testing.T) {
	mix, err := NewMixture(
		Component{Weight: 0.7, Dist: ExponentialWithMean(1, 4)},
		Component{Weight: 0.3, Dist: ParetoWithMean(40, 1.5)})
	if err != nil {
		t.Fatal(err)
	}
	laws := []SizeDist{
		ParetoWithMean(12.38, 1.64),
		BoundedPareto{Scale: 3.2, Max: 1e6, Shape: 1.5},
		ExponentialWithMean(1, 9.6),
		Weibull{Min: 1, Lambda: 8, K: 0.6},
		Weibull{Min: 0, Lambda: 8, K: 1.4},
		Lognormal{Min: 1, Mu: 1.2, Sigma: 1.1},
		NewDiscrete(Tally([]float64{1, 2, 2, 5, 9, 40})),
		NewDiscrete([]float64{1, 2, 7}, []float64{0.5, 0.3, 0.2}),
		mix,
	}
	for _, d := range laws {
		for _, u := range []float64{1, 0.3, 1e-3, 1e-9} {
			ray := Ray(d, u)
			for _, s := range []float64{-30, -2.5, -0.001, 0, 0.001, 0.7, 5, 25} {
				want := d.QuantileCCDF(math.Min(1, u*math.Exp(s)))
				got := ray(s)
				if math.Abs(got-want) > 1e-12*math.Abs(want) {
					t.Errorf("%v: ray from u=%g at s=%g is %.17g, quantile %.17g", d, u, s, got, want)
				}
			}
		}
	}
}

// TestDecompose: a nested mixture comes apart into merged ascending atoms
// and weighted continuous leaves that add back up to its CCDF.
func TestDecompose(t *testing.T) {
	inner, err := NewMixture(
		Component{Weight: 1, Dist: NewDiscrete(Tally([]float64{3, 1, 3, 8}))},
		Component{Weight: 3, Dist: ParetoWithMean(40, 1.5)})
	if err != nil {
		t.Fatal(err)
	}
	outer, err := NewMixture(
		Component{Weight: 0.5, Dist: inner},
		Component{Weight: 0.2, Dist: NewDiscrete([]float64{3, 20}, []float64{0.25, 0.75})},
		Component{Weight: 0.3, Dist: ExponentialWithMean(1, 4)})
	if err != nil {
		t.Fatal(err)
	}
	ps := Decompose(outer)
	if len(ps.Smooth) != 2 || len(ps.Atoms) != 4 {
		t.Fatalf("got %d leaves and %d atoms, want 2 and 4: %+v", len(ps.Smooth), len(ps.Atoms), ps)
	}
	total := 0.0
	for i, a := range ps.Atoms {
		if i > 0 && !(a.Value > ps.Atoms[i-1].Value) {
			t.Errorf("atoms not strictly ascending: %+v", ps.Atoms)
		}
		total += a.Mass
	}
	// The atom at 3 collects half of the empirical body and a quarter of
	// the discrete class.
	if want := 0.5*0.25*0.5 + 0.2*0.25; math.Abs(ps.Atoms[1].Mass-want) > 1e-15 || ps.Atoms[1].Value != 3 {
		t.Errorf("atom at 3: %+v, want mass %g", ps.Atoms[1], want)
	}
	for _, leaf := range ps.Smooth {
		total += leaf.Weight
	}
	if math.Abs(total-1) > 1e-15 {
		t.Errorf("masses and weights sum to %.17g", total)
	}
	g := randx.New(3)
	for i := 0; i < 200; i++ {
		x := outer.Rand(g) * (0.5 + g.Float64())
		sum := 0.0
		for _, a := range ps.Atoms {
			if a.Value > x {
				sum += a.Mass
			}
		}
		for _, leaf := range ps.Smooth {
			sum += leaf.Weight * leaf.Dist.CCDF(x)
		}
		if want := outer.CCDF(x); math.Abs(sum-want) > 1e-14 {
			t.Errorf("CCDF(%g): parts give %.17g, mixture %.17g", x, sum, want)
		}
	}
	// A law that is neither a combinator nor a step law is its own leaf.
	if ps := Decompose(ParetoWithMean(9.6, 1.5)); len(ps.Atoms) != 0 || len(ps.Smooth) != 1 || ps.Smooth[0].Weight != 1 {
		t.Errorf("plain law: %+v", ps)
	}
}
