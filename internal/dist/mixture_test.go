package dist

import (
	"math"
	"testing"

	"flowrank/internal/numeric"
	"flowrank/internal/randx"
)

func TestNewMixtureErrors(t *testing.T) {
	if _, err := NewMixture(); err == nil {
		t.Error("empty mixture accepted")
	}
	if _, err := NewMixture(Component{Weight: 1, Dist: nil}); err == nil {
		t.Error("nil component distribution accepted")
	}
	for _, w := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewMixture(Component{Weight: w, Dist: ParetoWithMean(9.6, 1.5)}); err == nil {
			t.Errorf("weight %g accepted", w)
		}
	}
}

func TestMixtureNormalizesWeights(t *testing.T) {
	mice := ExponentialWithMean(1, 3)
	elephants := ParetoWithMean(100, 1.8)
	m, err := NewMixture(
		Component{Weight: 6, Dist: mice},
		Component{Weight: 2, Dist: elephants},
	)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := 0.75*mice.Mean() + 0.25*elephants.Mean()
	if got := m.Mean(); math.Abs(got-wantMean) > 1e-12*wantMean {
		t.Errorf("mixture mean %g, want %g", got, wantMean)
	}
	for _, x := range []float64{0, 1, 2, 5, 20, 100, 1e4} {
		want := 0.75*mice.CCDF(x) + 0.25*elephants.CCDF(x)
		if got := m.CCDF(x); math.Abs(got-want) > 1e-14 {
			t.Errorf("CCDF(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestMixtureSingleComponentIsTransparent(t *testing.T) {
	d := ParetoWithMean(9.6, 1.5)
	m, err := NewMixture(Component{Weight: 2.5, Dist: d})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{1e-9, 1e-4, 0.1, 0.5, 0.99} {
		a, b := m.QuantileCCDF(u), d.QuantileCCDF(u)
		if math.Abs(a-b) > 1e-9*b {
			t.Errorf("QuantileCCDF(%g): mixture %g vs component %g", u, a, b)
		}
	}
	g1, g2 := randx.New(9), randx.New(9)
	for i := 0; i < 1000; i++ {
		// One extra uniform is burnt on component selection; only the
		// distribution (not the stream alignment) must match, so compare
		// through the sample mean.
		_ = m.Rand(g1)
		_ = d.Rand(g2)
	}
}

func TestMixtureRandClassShares(t *testing.T) {
	// Mice below 50, elephants above: the draw frequencies must follow
	// the weights.
	m, err := NewMixture(
		Component{Weight: 0.8, Dist: ExponentialWithMean(1, 3)},
		Component{Weight: 0.2, Dist: Pareto{Scale: 100, Shape: 2.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	g := randx.New(11)
	const n = 100_000
	big := 0
	for i := 0; i < n; i++ {
		if m.Rand(g) >= 100 {
			big++
		}
	}
	share := float64(big) / n
	if math.Abs(share-0.2) > 0.01 {
		t.Errorf("elephant share %g, want ~0.2", share)
	}
}

func TestMixtureWithEmpiricalComponent(t *testing.T) {
	// A step-CCDF component must not break the quantile bisection.
	emp := NewDiscrete(Tally([]float64{2, 2, 3, 7, 7, 7, 11, 40}))
	m, err := NewMixture(
		Component{Weight: 1, Dist: emp},
		Component{Weight: 1, Dist: ExponentialWithMean(1, 9.6)},
	)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, u := range []float64{1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999} {
		x := m.QuantileCCDF(u)
		if math.IsNaN(x) || x > prev*(1+1e-12) {
			t.Fatalf("QuantileCCDF(%g) = %g (prev %g)", u, x, prev)
		}
		// The step CCDF makes exact inversion impossible; the defining
		// sandwich property must still hold around the returned point.
		if lo := m.CCDF(x * (1 + 1e-9)); lo > u+1e-9 {
			t.Errorf("CCDF just above QuantileCCDF(%g) = %g, want <= u", u, lo)
		}
		if hi := m.CCDF(x * (1 - 1e-9)); hi < u-1e-9 && x > 2 {
			t.Errorf("CCDF just below QuantileCCDF(%g) = %g, want >= u", u, hi)
		}
		prev = x
	}
}

// TestMixtureQuantileMonotone sweeps a dense grid of a smooth mixture:
// the inverse must stay non-increasing in u from one bisection to the
// next.
func TestMixtureQuantileMonotone(t *testing.T) {
	m := smoothMixture(t)
	prev := math.Inf(1)
	for e := -14.0; e <= 0; e += 0.004 {
		u := math.Pow(10, e)
		x := m.QuantileCCDF(u)
		if math.IsNaN(x) || x > prev*(1+1e-9) {
			t.Fatalf("QuantileCCDF(%g) = %g rises above %g", u, x, prev)
		}
		prev = x
	}
}

// TestMixtureQuantileIsPseudoInverse states what QuantileCCDF(u) is —
// sup{x : CCDF(x) >= u} — through the CCDF alone, for a smooth two-class
// mixture, the spliced sample+Pareto shape and a Discrete+Pareto one,
// over eighteen decades of u. The test finds the jumps itself, from the
// step components' atoms: u is inside the jump at a when
// CCDF(a) < u <= CCDF(a-), and there the quantile is a exactly. Off a
// jump the CCDF sandwich CCDF(x(1-ε)) >= u >= CCDF(x(1+ε)) holds at
// ε = 1e-9. Either way x never falls as u does, up to the bisection's
// 1e-12 termination width.
func TestMixtureQuantileIsPseudoInverse(t *testing.T) {
	discrete, err := NewMixture(
		Component{Weight: 0.8, Dist: NewDiscrete([]float64{1, 2, 3, 5, 8}, []float64{0.4, 0.3, 0.15, 0.1, 0.05})},
		Component{Weight: 0.2, Dist: Pareto{Scale: 8, Shape: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	for _, m := range []*Mixture{smoothMixture(t), splicedMixture(t, 400, 7), discrete} {
		type jump struct{ atom, below, above float64 } // CCDF(atom), CCDF(atom-)
		var jumps []jump
		for _, c := range m.comps {
			if d, ok := c.Dist.(*Discrete); ok {
				for _, a := range d.values {
					jumps = append(jumps, jump{a, m.CCDF(a), m.CCDF(math.Nextafter(a, math.Inf(-1)))})
				}
			}
		}
		prev, inJump := 0.0, 0
		for e := 0.0; e >= -18; e -= 0.025 {
			u := math.Pow(10, e)
			x := m.QuantileCCDF(u)
			if math.IsNaN(x) || x < prev*(1-1e-12) {
				t.Fatalf("%s: QuantileCCDF(%g) = %g falls below %g", m, u, x, prev)
			}
			prev = x
			atom := math.NaN()
			for _, j := range jumps {
				if j.below < u && u <= j.above {
					atom = j.atom
				}
			}
			if !math.IsNaN(atom) {
				inJump++
				if x != atom {
					t.Errorf("%s: QuantileCCDF(%g) = %.17g inside the jump at %.17g", m, u, x, atom)
				}
				continue
			}
			if below, above := m.CCDF(x*(1-eps)), m.CCDF(x*(1+eps)); below < u || u < above {
				t.Errorf("%s: QuantileCCDF(%g) = %g: CCDF just below %g, just above %g", m, u, x, below, above)
			}
		}
		if len(jumps) > 0 && inJump == 0 {
			t.Errorf("%s: no probe landed inside a jump", m)
		}
	}
}

// TestMixtureQuantileOnFlatIsRightEnd: where u ties with a flat stretch of
// the CCDF every x on the stretch satisfies the sandwich, and the quantile
// is the documented one, the sup. invert.TailScaling builds this shape
// whenever a bin has exactly 100 sampled flows: tail weight 10/100, flat at
// 0.1 — one of the checkpoints flowtop prints — from the largest body value
// to the Pareto scale.
func TestMixtureQuantileOnFlatIsRightEnd(t *testing.T) {
	m, err := NewMixture(
		Component{Weight: 0.9, Dist: NewDiscrete(Tally([]float64{1, 1, 1, 1, 1, 1, 2, 2, 2.5}))},
		Component{Weight: 0.1, Dist: Pareto{Scale: 3, Shape: 12.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := m.CCDF(2.5), m.CCDF(3); lo != 0.1 || hi != 0.1 {
		t.Fatalf("CCDF is %g at 2.5 and %g at 3, want a flat at exactly 0.1", lo, hi)
	}
	if x := m.QuantileCCDF(0.1); x > 3 || x < 3*(1-1e-11) {
		t.Errorf("QuantileCCDF(0.1) = %.17g on the flat [2.5, 3], want its right end", x)
	}
}

func TestDiscretizeIsAPMF(t *testing.T) {
	for _, d := range laws(t) {
		pmf := Discretize(d, 5000)
		if pmf[0] != 0 {
			t.Fatalf("%s: pmf[0] = %g", d, pmf[0])
		}
		var sum numeric.KahanSum
		for s, v := range pmf {
			if v < 0 {
				t.Fatalf("%s: pmf[%d] = %g negative", d, s, v)
			}
			sum.Add(v)
		}
		if got := sum.Sum(); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: pmf sums to %g", d, got)
		}
	}
}

func TestDiscretizeTailMatchesCCDF(t *testing.T) {
	d := ParetoWithMean(9.6, 1.5)
	pmf := Discretize(d, 10_000)
	for _, k := range []int{1, 5, 50, 500, 5000} {
		var tail numeric.KahanSum
		for s := k + 1; s < len(pmf); s++ {
			tail.Add(pmf[s])
		}
		want := d.CCDF(float64(k) + 0.5)
		if got := tail.Sum(); math.Abs(got-want) > 1e-9 {
			t.Errorf("tail beyond %d = %g, CCDF = %g", k, got, want)
		}
	}
}

func TestDiscretizeMeanMatchesBoundedLaw(t *testing.T) {
	// On a bounded law nothing is folded into the last bin, so the pmf
	// mean must agree with the continuous mean up to rounding resolution.
	d := BoundedPareto{Scale: 2, Max: 800, Shape: 1.5}
	pmf := Discretize(d, 1000)
	var mean numeric.KahanSum
	for s, v := range pmf {
		mean.Add(float64(s) * v)
	}
	if got, want := mean.Sum(), d.Mean(); math.Abs(got-want) > 0.02*want {
		t.Errorf("discretized mean %g, continuous %g", got, want)
	}
}

func TestDiscretizeEdgeCases(t *testing.T) {
	if pmf := Discretize(ParetoWithMean(9.6, 1.5), 1); len(pmf) != 2 || pmf[1] != 1 {
		t.Errorf("max=1 pmf = %v", pmf)
	}
	mustPanic(t, func() { Discretize(nil, 10) })
	mustPanic(t, func() { Discretize(ParetoWithMean(9.6, 1.5), 0) })
}
