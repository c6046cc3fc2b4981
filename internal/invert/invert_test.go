package invert

import (
	"math"
	"testing"

	"flowrank/internal/dist"
	"flowrank/internal/randx"
)

// estimators returns one configured instance of every Estimator.
func estimators() []Estimator {
	return []Estimator{Naive{}, TailScaling{}, EM{}, Parametric{}}
}

// sampleTrace draws n original flow sizes from d (rounded to >= 1 packet,
// the tracegen convention) and thins each with an exact Binomial(s, p);
// flows with no sampled packet are dropped from counts, exactly what a
// sampling monitor observes.
func sampleTrace(d dist.SizeDist, n int, p float64, seed uint64) (truth, counts []float64) {
	g := randx.New(seed)
	for i := 0; i < n; i++ {
		s := int(math.Max(1, math.Round(d.Rand(g))))
		truth = append(truth, float64(s))
		if k := g.Binomial(s, p); k > 0 {
			counts = append(counts, float64(k))
		}
	}
	return truth, counts
}

func TestInputValidation(t *testing.T) {
	good := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for _, est := range estimators() {
		if _, err := est.Invert(nil, 0.1); err == nil {
			t.Errorf("%s: empty counts accepted", est.Name())
		}
		if _, err := est.Invert(good, 0); err == nil {
			t.Errorf("%s: rate 0 accepted", est.Name())
		}
		if _, err := est.Invert(good, 1.5); err == nil {
			t.Errorf("%s: rate 1.5 accepted", est.Name())
		}
		if _, err := est.Invert([]float64{1, 0.2, 3}, 0.1); err == nil {
			t.Errorf("%s: count below 1 accepted", est.Name())
		}
		if _, err := est.Invert([]float64{1, math.Inf(1)}, 0.1); err == nil {
			t.Errorf("%s: infinite count accepted", est.Name())
		}
	}
}

func TestNaiveRescales(t *testing.T) {
	est, err := Naive{}.Invert([]float64{1, 2, 3}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != 4 {
		t.Errorf("mean %g, want 4 (scaled sample {2,4,6})", est.Mean)
	}
	if est.FlowCount != 3 {
		t.Errorf("flow count %g, want the observed 3", est.FlowCount)
	}
	if got := est.Dist.CCDF(2); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("CCDF(2) = %g, want 2/3", got)
	}
	if est.TailIndex != 0 {
		t.Errorf("tail index %g from 3 flows, want 0 (not identifiable)", est.TailIndex)
	}
}

func TestHillRecoversParetoIndex(t *testing.T) {
	g := randx.New(1)
	for _, beta := range []float64{1.2, 1.5, 2.5} {
		d := dist.Pareto{Scale: 1, Shape: beta}
		sizes := make([]float64, 50000)
		for i := range sizes {
			sizes[i] = d.Rand(g)
		}
		got, err := Hill(sizes, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-beta) > 0.15*beta {
			t.Errorf("Hill estimate %g, want %g", got, beta)
		}
		// Scale invariance: thinning rescales sizes but keeps the index.
		scaled := make([]float64, len(sizes))
		for i := range sizes {
			scaled[i] = sizes[i] / 0.01
		}
		rescaled, err := Hill(scaled, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rescaled-got) > 1e-9 {
			t.Errorf("Hill not scale-invariant: %g vs %g", rescaled, got)
		}
	}
}

func TestHillErrors(t *testing.T) {
	if _, err := Hill([]float64{1, 2, 3}, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := Hill([]float64{1, 2, 3}, 3); err == nil {
		t.Error("k=n accepted")
	}
	if _, err := Hill([]float64{5, 5, 5, 5, 5}, 3); err == nil {
		t.Error("degenerate tail accepted")
	}
}

// TestEstimatesOrderInvariant: every estimator must canonicalize its
// input — reversing the counts gives a bit-identical estimate. This is
// the property the streaming engine's determinism contract leans on when
// it inverts counts collected from a map.
func TestEstimatesOrderInvariant(t *testing.T) {
	_, counts := sampleTrace(dist.ParetoWithMean(9.6, 1.5), 4000, 0.1, 5)
	reversed := make([]float64, len(counts))
	for i, c := range counts {
		reversed[len(counts)-1-i] = c
	}
	for _, est := range estimators() {
		a, errA := est.Invert(counts, 0.1)
		b, errB := est.Invert(reversed, 0.1)
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", est.Name(), errA, errB)
		}
		if a.Mean != b.Mean || a.TailIndex != b.TailIndex || a.FlowCount != b.FlowCount {
			t.Errorf("%s: estimate depends on input order: %+v vs %+v", est.Name(), a, b)
		}
		for _, u := range []float64{1e-3, 0.01, 0.1, 0.5, 0.9} {
			if qa, qb := a.Dist.QuantileCCDF(u), b.Dist.QuantileCCDF(u); qa != qb {
				t.Errorf("%s: quantile(%g) depends on input order: %g vs %g", est.Name(), u, qa, qb)
			}
		}
	}
}

// TestPinnedParetoRecovery is the acceptance pin: on a fixed-seed
// Pareto(alpha = 1.1) trace thinned at p = 0.01, the EM inversion's mean
// must land within 10% of the trace's true mean and its tail index
// within 0.15 of the true exponent, with a strictly better
// Kolmogorov–Smirnov distance to the true size distribution than the
// 1/p-scaling baseline.
func TestPinnedParetoRecovery(t *testing.T) {
	const (
		alpha = 1.1
		p     = 0.01
		n     = 30000
	)
	truth, counts := sampleTrace(dist.ParetoWithMean(300, alpha), n, p, 77)
	emp := dist.NewEmpirical(truth)
	probes := QuantileProbes(emp, 512)

	naive, err := Naive{}.Invert(counts, p)
	if err != nil {
		t.Fatal(err)
	}
	em, err := EM{}.Invert(counts, p)
	if err != nil {
		t.Fatal(err)
	}

	trueMean := emp.Mean()
	if rel := math.Abs(em.Mean-trueMean) / trueMean; rel > 0.10 {
		t.Errorf("EM mean %g vs true %g: %.1f%% off, want <= 10%%", em.Mean, trueMean, 100*rel)
	}
	if math.Abs(em.TailIndex-alpha) > 0.15 {
		t.Errorf("EM tail index %g, want within 0.15 of %g", em.TailIndex, alpha)
	}
	ksNaive := KolmogorovDistance(naive.Dist, emp, probes)
	ksEM := KolmogorovDistance(em.Dist, emp, probes)
	if !(ksEM < ksNaive) {
		t.Errorf("EM KS %g not strictly better than naive %g", ksEM, ksNaive)
	}
	// The completion step recovers the flows sampling missed: the naive
	// count is the observed one, the EM count must be near the truth.
	if naive.FlowCount != float64(len(counts)) {
		t.Errorf("naive flow count %g, want observed %d", naive.FlowCount, len(counts))
	}
	if rel := math.Abs(em.FlowCount-n) / n; rel > 0.10 {
		t.Errorf("EM flow count %g vs true %d: %.1f%% off", em.FlowCount, n, 100*rel)
	}
}

// TestEMImprovesKSAcrossLaws: on light-tailed and multi-class traffic the
// EM inversion must also beat the scaling baseline in distribution
// distance — the body below 1/p is where naive scaling is blind.
func TestEMImprovesKSAcrossLaws(t *testing.T) {
	mix, err := dist.NewMixture(
		dist.Component{Weight: 3, Dist: dist.ExponentialWithMean(1, 40)},
		dist.Component{Weight: 1, Dist: dist.ParetoWithMean(400, 1.5)},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    dist.SizeDist
		p    float64
	}{
		{"weibull", dist.Weibull{Min: 1, Lambda: 60, K: 0.7}, 0.05},
		{"mixture", mix, 0.05},
		{"pareto", dist.ParetoWithMean(9.6, 1.5), 0.1},
	} {
		truth, counts := sampleTrace(tc.d, 20000, tc.p, 7)
		emp := dist.NewEmpirical(truth)
		probes := QuantileProbes(emp, 256)
		naive, err := Naive{}.Invert(counts, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		em, err := EM{}.Invert(counts, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		ksNaive := KolmogorovDistance(naive.Dist, emp, probes)
		ksEM := KolmogorovDistance(em.Dist, emp, probes)
		if !(ksEM < ksNaive) {
			t.Errorf("%s: EM KS %g not below naive %g", tc.name, ksEM, ksNaive)
		}
		if rel := math.Abs(em.Mean-emp.Mean()) / emp.Mean(); rel > 0.2 {
			t.Errorf("%s: EM mean %g vs true %g (%.0f%% off)", tc.name, em.Mean, emp.Mean(), 100*rel)
		}
	}
}

// TestEMRateOneReproducesEmpirical is the cross-law exactness property:
// at p = 1 the thinning kernel is the identity, so the EM fit must
// reproduce the empirical input distribution exactly — equal mean, equal
// CCDF at every atom, zero KS distance — for every law family.
func TestEMRateOneReproducesEmpirical(t *testing.T) {
	laws := []dist.SizeDist{
		dist.ParetoWithMean(9.6, 1.5),
		dist.Weibull{Min: 1, Lambda: 8, K: 1.4},
		dist.Lognormal{Min: 1, Mu: 1.2, Sigma: 1.1},
		dist.NewDiscrete([]float64{1, 4, 9, 50}, []float64{0.4, 0.3, 0.2, 0.1}),
	}
	for _, law := range laws {
		truth, counts := sampleTrace(law, 4000, 1, 11)
		if len(counts) != len(truth) {
			t.Fatalf("%s: p=1 must observe every flow", law)
		}
		emp := dist.NewEmpirical(truth)
		em, err := EM{}.Invert(counts, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The atom weights are identical; only the summation order differs
		// between the two mean computations, hence the 1-ulp-scale band.
		if rel := math.Abs(em.Mean-emp.Mean()) / emp.Mean(); rel > 1e-12 {
			t.Errorf("%s: EM mean %g != empirical %g at p=1", law, em.Mean, emp.Mean())
		}
		if em.FlowCount != float64(len(truth)) {
			t.Errorf("%s: EM flow count %g != %d at p=1", law, em.FlowCount, len(truth))
		}
		for _, x := range truth {
			if got, want := em.Dist.CCDF(x), emp.CCDF(x); math.Abs(got-want) > 1e-12 {
				t.Errorf("%s: CCDF(%g) = %g, want %g", law, x, got, want)
				break
			}
		}
		if ks := KolmogorovDistance(em.Dist, emp, truth); ks > 1e-12 {
			t.Errorf("%s: KS %g at p=1, want 0", law, ks)
		}
	}
}

// TestTailScalingSplice: the spliced estimate carries the Hill exponent,
// puts the tail weight above the rescaled threshold, and matches the
// rescaled empirical in the body.
func TestTailScalingSplice(t *testing.T) {
	const p = 0.1
	_, counts := sampleTrace(dist.ParetoWithMean(9.6, 1.5), 20000, p, 3)
	est, err := TailScaling{}.Invert(counts, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.TailIndex-1.5) > 0.3 {
		t.Errorf("tail index %g, want near 1.5", est.TailIndex)
	}
	k := int(tailFraction * float64(len(counts)))
	hill, err := Hill(counts, k)
	if err != nil {
		t.Fatal(err)
	}
	if est.TailIndex != hill {
		t.Errorf("tail index %g must be the Hill fit %g", est.TailIndex, hill)
	}
	// Above the splice threshold the CCDF is the fitted Pareto tail.
	w := float64(k) / float64(len(counts))
	sorted := sortedCopy(counts)
	threshold := sorted[len(counts)-k] / p
	if got := est.Dist.CCDF(threshold); math.Abs(got-w) > 0.25*w {
		t.Errorf("CCDF at threshold %g = %g, want about the tail weight %g", threshold, got, w)
	}
	if got, want := est.Dist.CCDF(threshold*4), w*math.Pow(4, -est.TailIndex); math.Abs(got-want) > 0.3*want {
		t.Errorf("CCDF(4x threshold) = %g, want about %g (Pareto continuation)", got, want)
	}
	// The flow count must be inflated beyond the observed by the miss
	// probability of the spliced law.
	if est.FlowCount <= float64(len(counts)) {
		t.Errorf("flow count %g not above observed %d", est.FlowCount, len(counts))
	}
}

// TestTailScalingClampsInfiniteMeanTail: a sample whose Hill estimate
// lands at or below 1 (geometric growth: every log-excess equal and huge)
// must not produce an infinite-mean splice — the exponent clamps to 1.05
// and the estimate stays finite and self-consistent.
func TestTailScalingClampsInfiniteMeanTail(t *testing.T) {
	counts := make([]float64, 30)
	for i := range counts {
		counts[i] = math.Pow(2, float64(i)) // Hill ≈ 0.32 on the top 10
	}
	est, err := TailScaling{}.Invert(counts, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if est.TailIndex != 1.05 {
		t.Errorf("tail index %g, want the 1.05 clamp", est.TailIndex)
	}
	if math.IsInf(est.Mean, 0) || math.IsNaN(est.Mean) || !(est.Mean > 0) {
		t.Errorf("clamped estimate mean %g, want finite positive", est.Mean)
	}
	if math.IsInf(est.FlowCount, 0) || est.FlowCount < float64(len(counts)) {
		t.Errorf("flow count %g", est.FlowCount)
	}
	if got := est.Dist.Mean(); math.IsInf(got, 0) {
		t.Errorf("spliced dist mean %g, want finite", got)
	}
}

func TestParametricMatchesEstimatePopulation(t *testing.T) {
	const p = 0.05
	_, counts := sampleTrace(dist.ParetoWithMean(9.6, 1.5), 30000, p, 4)
	est, err := Parametric{}.Invert(counts, p)
	if err != nil {
		t.Fatal(err)
	}
	var packets float64
	for _, c := range counts {
		packets += c
	}
	beta, err := Hill(counts, hillDefaultK(len(counts)))
	if err != nil {
		t.Fatal(err)
	}
	if beta <= 1.05 {
		beta = 1.05
	}
	n, mean, err := estimatePopulation(len(counts), int64(math.Round(packets)), p, beta)
	if err != nil {
		t.Fatal(err)
	}
	if est.FlowCount != n || est.Mean != mean || est.TailIndex != beta {
		t.Errorf("Parametric (%g, %g, %g) differs from estimatePopulation (%g, %g, %g)",
			est.FlowCount, est.Mean, est.TailIndex, n, mean, beta)
	}
	// ParetoWithMean round-trips mean -> scale -> mean through two float
	// divisions, so the fitted law's mean can differ in the last ulp.
	if rel := math.Abs(est.Dist.Mean()-mean) / mean; rel > 1e-12 {
		t.Errorf("fitted dist mean %g, want %g", est.Dist.Mean(), mean)
	}
}

func TestWeightedTailIndexExactPareto(t *testing.T) {
	// A discretized Pareto's weighted Hill estimate must recover the
	// exponent.
	for _, alpha := range []float64{1.2, 1.8} {
		d := dist.Pareto{Scale: 1, Shape: alpha}
		var values, weights []float64
		prev := 1.0
		for x := 1.0; x < 1e9; x *= 1.05 {
			next := d.CCDF(x * 1.05)
			values = append(values, x)
			weights = append(weights, prev-next)
			prev = next
		}
		got := weightedTailIndex(values, weights, 0.02)
		if math.Abs(got-alpha) > 0.1*alpha {
			t.Errorf("alpha %g: weighted tail index %g", alpha, got)
		}
	}
	if got := weightedTailIndex([]float64{5}, []float64{1}, 0.02); got != 0 {
		t.Errorf("single atom tail index %g, want 0", got)
	}
	if got := weightedTailIndex(nil, nil, 0.02); got != 0 {
		t.Errorf("empty tail index %g, want 0", got)
	}
}

func TestKolmogorovDistance(t *testing.T) {
	d := dist.ParetoWithMean(9.6, 1.5)
	probes := QuantileProbes(d, 128)
	if ks := KolmogorovDistance(d, d, probes); ks != 0 {
		t.Errorf("self distance %g", ks)
	}
	// Disjoint supports: distance approaches 1.
	a := dist.NewDiscrete([]float64{1, 2}, []float64{0.5, 0.5})
	b := dist.NewDiscrete([]float64{100, 200}, []float64{0.5, 0.5})
	if ks := KolmogorovDistance(a, b, []float64{1, 2, 100, 200}); ks != 1 {
		t.Errorf("disjoint distance %g, want 1", ks)
	}
}

// missMonteCarlo is the share of n flows drawn from d (rounded to >= 1
// packet) that leave no packet when thinned at rate p.
func missMonteCarlo(d dist.SizeDist, p float64, n int, seed uint64) float64 {
	g := randx.New(seed)
	missed := 0
	for i := 0; i < n; i++ {
		s := int(math.Max(1, math.Round(d.Rand(g))))
		if g.Binomial(s, p) == 0 {
			missed++
		}
	}
	return float64(missed) / float64(n)
}

func TestMissProbability(t *testing.T) {
	d := dist.ParetoWithMean(9.6, 1.5)
	for _, p := range []float64{0.01, 0.1, 0.5} {
		mc := missMonteCarlo(d, p, 300000, 2)
		// The analytic form uses continuous sizes; allow the
		// discretization gap plus MC noise.
		if got := MissProbability(d, p); math.Abs(got-mc) > 0.03 {
			t.Errorf("p=%g: analytic %g vs MC %g", p, got, mc)
		}
	}
}

// TestMissProbabilityAnySizeLaw: the population inversion must accept any
// SizeDist, not just the Pareto Parametric fits: cross-check the
// quantile-space integral against Monte Carlo for a short-tailed law and a
// multi-class mixture.
func TestMissProbabilityAnySizeLaw(t *testing.T) {
	mix, err := dist.NewMixture(
		dist.Component{Weight: 0.9, Dist: dist.ExponentialWithMean(1, 4)},
		dist.Component{Weight: 0.1, Dist: dist.ParetoWithMean(50, 1.6)},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []dist.SizeDist{dist.Lognormal{Min: 1, Mu: 1.2, Sigma: 1.1}, mix} {
		for i, p := range []float64{0.05, 0.3} {
			mc := missMonteCarlo(d, p, 200000, 8+uint64(i))
			if got := MissProbability(d, p); math.Abs(got-mc) > 0.03 {
				t.Errorf("%s p=%g: analytic %g vs MC %g", d, p, got, mc)
			}
		}
	}
}

func TestMissProbabilityEdges(t *testing.T) {
	d := dist.ParetoWithMean(9.6, 1.5)
	if MissProbability(d, 1) != 0 || MissProbability(d, 0) != 1 {
		t.Error("edge rates wrong")
	}
	// A point mass at s: miss probability is exactly (1-p)^s.
	point := dist.NewDiscrete([]float64{10}, []float64{1})
	if got, want := MissProbability(point, 0.1), math.Pow(0.9, 10); math.Abs(got-want) > 1e-9 {
		t.Errorf("point-mass miss %g, want %g", got, want)
	}
	// A step law's miss probability is the finite sum Σ w·(1-p)^v over its
	// atoms, and it is summed, not integrated: a quadrature over the step
	// quantile was off by up to 1e-6 relative on the EM estimate below.
	multi := dist.NewDiscrete([]float64{1, 2, 3, 7, 40, 1000}, []float64{0.4, 0.25, 0.15, 0.1, 0.07, 0.03})
	_, counts := sampleTrace(dist.ParetoWithMean(9.6, 1.5), 20000, 0.5, 11)
	em, err := EM{}.Invert(counts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, law := range []*dist.Discrete{multi, em.Dist.(*dist.Discrete)} {
		values, weights := law.Atoms(nil, nil)
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
			want := 0.0
			for i, v := range values {
				want += weights[i] * math.Pow(1-p, v)
			}
			if got := MissProbability(law, p); math.Abs(got-want) > 1e-13*want {
				t.Errorf("%s p=%g: miss %.17g, atom sum %.17g (rel %.2g)", law, p, got, want, math.Abs(got-want)/want)
			}
		}
	}
}

// TestEstimatePopulation: the fixed point recovers the flow count and
// mean of a sampled bin synthesized from a known population.
func TestEstimatePopulation(t *testing.T) {
	const trueN, p = 100000, 0.05
	_, counts := sampleTrace(dist.ParetoWithMean(9.6, 1.5), trueN, p, 3)
	var packets int64
	for _, c := range counts {
		packets += int64(c)
	}
	nEst, meanEst, err := estimatePopulation(len(counts), packets, p, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nEst-trueN) > 0.1*trueN {
		t.Errorf("N estimate %g, true %d", nEst, trueN)
	}
	if math.Abs(meanEst-9.6) > 0.15*9.6 {
		t.Errorf("mean estimate %g, true 9.6", meanEst)
	}
}

func TestEstimatePopulationErrors(t *testing.T) {
	if _, _, err := estimatePopulation(0, 0, 0.1, 1.5); err == nil {
		t.Error("empty bin accepted")
	}
	if _, _, err := estimatePopulation(10, 100, 0, 1.5); err == nil {
		t.Error("zero rate accepted")
	}
	if _, _, err := estimatePopulation(10, 100, 0.1, 0.9); err == nil {
		t.Error("infinite-mean tail accepted")
	}
}

func TestEstimateString(t *testing.T) {
	e := Estimate{Method: "em", Mean: 9.6, TailIndex: 1.5, FlowCount: 1000}
	if got := e.String(); got != "em: mean=9.6 tail=1.5 flows=1000" {
		t.Errorf("String() = %q", got)
	}
}
