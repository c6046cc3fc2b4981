package dist

import (
	"math"
	"testing"

	"flowrank/internal/randx"
)

// splicedMixture builds the sample-body + Pareto-tail shape that
// invert.TailScaling produces — the workload whose quantile calls mostly
// land inside a CCDF jump.
func splicedMixture(t testing.TB, n int, seed uint64) *Mixture {
	t.Helper()
	g := randx.New(seed)
	body := make([]float64, n)
	for i := range body {
		if i%4 == 0 {
			// A few heavy duplicated atoms: wide steps.
			body[i] = 1 + float64(g.IntN(8))
		} else {
			// Mostly-distinct values, as TailScaling's scaled samples are:
			// many narrow u-steps.
			body[i] = 1 + 40*g.Float64()
		}
	}
	m, err := NewMixture(
		Component{Weight: 0.9, Dist: NewDiscrete(Tally(body))},
		Component{Weight: 0.1, Dist: Pareto{Scale: 40, Shape: 1.3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMixtureStepAtlasMatchesBisection: the atlas answer must agree with
// the reference bisection everywhere — exactly on step interiors, within
// the bisection termination width at the edges.
func TestMixtureStepAtlasMatchesBisection(t *testing.T) {
	m := splicedMixture(t, 400, 7)
	a := m.stepAtlas()
	if a == nil {
		t.Fatal("spliced mixture built no step atlas")
	}
	// Every atom's step interval must invert to the atom itself, and the
	// bisection reference must land there too (within its 1e-12 width).
	for i, atom := range a.atoms {
		for _, u := range []float64{
			math.Nextafter(a.ulo[i], 1), // just inside the step
			(a.ulo[i] + a.uhi[i]) / 2,   // mid-step
			a.uhi[i],                    // inclusive top edge
		} {
			if u <= a.ulo[i] || u > a.uhi[i] {
				continue // degenerate one-ulp step
			}
			got := m.QuantileCCDF(u)
			if got != atom {
				t.Fatalf("atom %g: QuantileCCDF(%g) = %g, want exact atom", atom, u, got)
			}
			ref := m.quantileBisect(u)
			if math.Abs(ref-atom) > 1e-9*(1+atom) {
				t.Fatalf("atom %g: bisection reference %g disagrees", atom, ref)
			}
		}
	}
	// A dense sweep across the whole range — on and off the steps — must
	// agree with bisection to the documented tolerance.
	g := randx.New(99)
	for i := 0; i < 2000; i++ {
		u := math.Exp(-12 * g.Float64()) // log-uniform in [e^-12, 1)
		got := m.QuantileCCDF(u)
		ref := m.quantileBisect(u)
		if math.Abs(got-ref) > 1e-8*(1+math.Abs(ref)) {
			t.Fatalf("u=%g: QuantileCCDF %g vs bisection %g", u, got, ref)
		}
	}
}

// TestMixtureInverseTableWithSteps exercises a step CCDF with few, wide
// steps over a smooth component with the same support: on and off the
// sample component's atoms the answer must agree with plain bisection.
func TestMixtureInverseTableWithSteps(t *testing.T) {
	m, err := NewMixture(
		Component{Weight: 1, Dist: NewDiscrete(Tally([]float64{2, 2, 3, 7, 7, 7, 11, 40}))},
		Component{Weight: 1, Dist: ExponentialWithMean(1, 9.6)},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{
		1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4,
		1e-3, 0.01, 0.03, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999,
	} {
		fast := m.QuantileCCDF(u)
		ref := m.quantileBisect(u)
		if diff := math.Abs(fast - ref); diff > 1e-9*math.Max(1, ref) {
			t.Errorf("steps: QuantileCCDF(%g) = %.15g, bisection %.15g", u, fast, ref)
		}
	}
}

// TestMixtureStepAtlasIntervalsDisjoint pins the atlas invariants the
// lookup's binary search relies on.
func TestMixtureStepAtlasIntervalsDisjoint(t *testing.T) {
	m := splicedMixture(t, 300, 11)
	a := m.stepAtlas()
	if a == nil {
		t.Fatal("no atlas")
	}
	for i := range a.atoms {
		if a.uhi[i] <= a.ulo[i] {
			t.Fatalf("atom %g: empty interval (%g, %g]", a.atoms[i], a.ulo[i], a.uhi[i])
		}
		if i > 0 {
			if a.atoms[i] <= a.atoms[i-1] {
				t.Fatalf("atoms not strictly ascending at %d", i)
			}
			if a.uhi[i] > a.ulo[i-1] {
				t.Fatalf("intervals overlap at %d: (%g,%g] then (%g,%g]",
					i, a.ulo[i-1], a.uhi[i-1], a.ulo[i], a.uhi[i])
			}
		}
	}
}

// TestMixtureContinuousHasNoAtlas: smooth mixtures must not pay for an
// atlas.
func TestMixtureContinuousHasNoAtlas(t *testing.T) {
	m, err := NewMixture(
		Component{Weight: 0.7, Dist: Pareto{Scale: 1, Shape: 1.5}},
		Component{Weight: 0.3, Dist: Pareto{Scale: 100, Shape: 2.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.stepAtlas() != nil {
		t.Fatal("continuous mixture built a step atlas")
	}
}

// TestMixtureDiscreteAtlas: Discrete components feed the atlas too.
func TestMixtureDiscreteAtlas(t *testing.T) {
	m, err := NewMixture(
		Component{Weight: 0.8, Dist: NewDiscrete([]float64{1, 2, 3, 5, 8}, []float64{0.4, 0.3, 0.15, 0.1, 0.05})},
		Component{Weight: 0.2, Dist: Pareto{Scale: 8, Shape: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := m.stepAtlas()
	if a == nil {
		t.Fatal("discrete mixture built no atlas")
	}
	if len(a.atoms) != 5 {
		t.Fatalf("atlas has %d atoms, want 5", len(a.atoms))
	}
	// P{S > 1} = 1 - 0.8*0.4 = 0.68; anything in (0.68, 1] inverts to 1.
	if got := m.QuantileCCDF(0.9); got != 1 {
		t.Fatalf("QuantileCCDF(0.9) = %g, want 1", got)
	}
}

// BenchmarkMixtureQuantileSpliced measures the spliced-mixture inversion;
// without the step atlas ~90% of these calls are bisections.
func BenchmarkMixtureQuantileSpliced(b *testing.B) {
	m := splicedMixture(b, 2000, 3)
	m.QuantileCCDF(0.5) // build the atlas outside the timer
	us := make([]float64, 1024)
	g := randx.New(17)
	for i := range us {
		us[i] = math.Exp(-10 * g.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.QuantileCCDF(us[i%len(us)])
	}
}
