package dist

import (
	"math"
	"slices"
	"sort"
	"testing"

	"flowrank/internal/randx"
)

func TestNewDiscreteNormalizesAndDropsZeros(t *testing.T) {
	d := NewDiscrete([]float64{1, 3, 7, 20}, []float64{2, 0, 1, 1})
	if d.Len() != 3 {
		t.Errorf("Len() = %d, want 3 (zero-weight atom dropped)", d.Len())
	}
	values, weights := d.values, d.weights
	if len(values) != 3 || values[0] != 1 || values[1] != 7 || values[2] != 20 {
		t.Errorf("atoms %v", values)
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-15 {
		t.Errorf("weights sum to %g", sum)
	}
	if math.Abs(weights[0]-0.5) > 1e-15 {
		t.Errorf("weight[0] = %g, want 0.5 after normalization", weights[0])
	}
	if want := 0.5*1 + 0.25*7 + 0.25*20; math.Abs(d.Mean()-want) > 1e-12 {
		t.Errorf("Mean() = %g, want %g", d.Mean(), want)
	}
}

func TestDiscreteCCDFSteps(t *testing.T) {
	d := NewDiscrete([]float64{2, 5, 9}, []float64{0.5, 0.3, 0.2})
	cases := []struct{ x, want float64 }{
		{0, 1}, {1.999, 1}, {2, 0.5}, {4.5, 0.5}, {5, 0.2}, {8.999, 0.2}, {9, 0}, {100, 0},
	}
	for _, c := range cases {
		if got := d.CCDF(c.x); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("CCDF(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	// Quantile is the generalized inverse of that step function.
	qcases := []struct{ u, want float64 }{
		{1, 2}, {0.9, 2}, {0.5, 2}, {0.4, 5}, {0.2, 5}, {0.1, 9}, {0, 9},
	}
	for _, c := range qcases {
		if got := d.QuantileCCDF(c.u); got != c.want {
			t.Errorf("QuantileCCDF(%g) = %g, want %g", c.u, got, c.want)
		}
	}
}

func TestDiscreteRandMatchesWeights(t *testing.T) {
	d := NewDiscrete([]float64{1, 10, 100}, []float64{0.6, 0.3, 0.1})
	g := randx.New(17)
	counts := map[float64]int{}
	const n = 200_000
	for i := 0; i < n; i++ {
		counts[d.Rand(g)]++
	}
	for v, want := range map[float64]float64{1: 0.6, 10: 0.3, 100: 0.1} {
		got := float64(counts[v]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("atom %g drawn with frequency %g, want %g", v, got, want)
		}
	}
}

func TestNewDiscreteFromPMFLayout(t *testing.T) {
	// pmf[s] = P{S = s}, pmf[0] unused — the Discretize layout.
	d := NewDiscreteFromPMF([]float64{99, 0.25, 0.5, 0.25})
	if d.Len() != 3 || d.Mean() != 2 {
		t.Errorf("len %d mean %g, want 3 atoms with mean 2", d.Len(), d.Mean())
	}
	if got := d.CCDF(1); math.Abs(got-0.75) > 1e-15 {
		t.Errorf("CCDF(1) = %g, want 0.75", got)
	}
}

func TestDiscreteRoundTripsDiscretize(t *testing.T) {
	// NewDiscreteFromPMF(Discretize(law, max)) is the discretized view of
	// the law: means and tail probabilities must agree to discretization
	// accuracy.
	law := ParetoWithMean(9.6, 1.5)
	const max = 2000
	d := NewDiscreteFromPMF(Discretize(law, max))
	if rel := math.Abs(d.Mean()-law.Mean()) / law.Mean(); rel > 0.05 {
		t.Errorf("discretized mean %g vs %g (%.1f%% off)", d.Mean(), law.Mean(), 100*rel)
	}
	// Discretize bins the continuous mass at half-integer edges, so the
	// atom CCDF at integer x is the law's CCDF at x + 0.5.
	for _, x := range []float64{5, 20, 100, 900} {
		if diff := math.Abs(d.CCDF(x) - law.CCDF(x+0.5)); diff > 0.005 {
			t.Errorf("CCDF(%g): discrete %g vs law %g", x, d.CCDF(x), law.CCDF(x+0.5))
		}
	}
}

func TestNewDiscreteInvalidInputs(t *testing.T) {
	mustPanic(t, func() { NewDiscrete(nil, nil) })
	mustPanic(t, func() { NewDiscrete([]float64{1, 2}, []float64{1}) })
	mustPanic(t, func() { NewDiscrete([]float64{1, 1}, []float64{1, 1}) })           // not ascending
	mustPanic(t, func() { NewDiscrete([]float64{-1, 2}, []float64{1, 1}) })          // negative value
	mustPanic(t, func() { NewDiscrete([]float64{1, 2}, []float64{1, -1}) })          // negative weight
	mustPanic(t, func() { NewDiscrete([]float64{1, 2}, []float64{0, 0}) })           // zero total
	mustPanic(t, func() { NewDiscrete([]float64{1}, []float64{math.NaN()}) })        // NaN weight
	mustPanic(t, func() { NewDiscrete([]float64{math.NaN()}, []float64{1}) })        // NaN value
	mustPanic(t, func() { NewDiscrete([]float64{1, math.Inf(1)}, []float64{1, 1}) }) // infinite value
	mustPanic(t, func() { NewDiscreteFromPMF([]float64{1}) })                        // no sizes
}

// TestEmpiricalSteps: a sample's law is the Discrete over its tally, one
// atom per distinct value weighted by its multiplicity.
func TestEmpiricalSteps(t *testing.T) {
	values, counts := Tally([]float64{5, 1, 2, 2}) // unsorted on purpose
	if !slices.Equal(values, []float64{1, 2, 5}) || !slices.Equal(counts, []float64{1, 2, 1}) {
		t.Fatalf("Tally = %v, %v; want [1 2 5], [1 2 1]", values, counts)
	}
	e := NewDiscrete(values, counts)
	if e.Len() != 3 {
		t.Fatalf("Len = %d, want 3 distinct values", e.Len())
	}
	if got := e.Mean(); got != 2.5 {
		t.Errorf("mean %g, want 2.5", got)
	}
	cases := []struct{ x, want float64 }{
		{0, 1}, {1, 0.75}, {1.5, 0.75}, {2, 0.25}, {4.9, 0.25}, {5, 0}, {9, 0},
	}
	for _, c := range cases {
		if got := e.CCDF(c.x); got != c.want {
			t.Errorf("CCDF(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	quants := []struct{ u, want float64 }{
		{1, 1}, {0.76, 1}, {0.75, 1}, {0.5, 2}, {0.26, 2}, {0.25, 2}, {0.2, 5}, {1e-9, 5},
	}
	for _, c := range quants {
		if got := e.QuantileCCDF(c.u); got != c.want {
			t.Errorf("QuantileCCDF(%g) = %g, want %g", c.u, got, c.want)
		}
	}
	// Pseudo-inverse property: CCDF at the returned value never exceeds u.
	for u := 0.001; u <= 1; u += 0.001 {
		if e.CCDF(e.QuantileCCDF(u)) > u {
			t.Fatalf("CCDF(QuantileCCDF(%g)) = %g above u", u, e.CCDF(e.QuantileCCDF(u)))
		}
	}
	mustPanic(t, func() { NewDiscrete(Tally(nil)) })
}

func TestEmpiricalRandBootstraps(t *testing.T) {
	values := []float64{1, 2, 2, 5, 9}
	e := NewDiscrete(Tally(values))
	in := map[float64]bool{1: true, 2: true, 5: true, 9: true}
	g := randx.New(3)
	counts := map[float64]int{}
	const n = 50_000
	for i := 0; i < n; i++ {
		v := e.Rand(g)
		if !in[v] {
			t.Fatalf("draw %g not in sample", v)
		}
		counts[v]++
	}
	if got := float64(counts[2]) / n; math.Abs(got-0.4) > 0.01 {
		t.Errorf("value 2 drawn with frequency %g, want ~0.4", got)
	}
}

// TestDiscreteFromTallyIsTheEmpiricalLaw is the reference for a sample's
// step law. Its rules are those of the equal-weight Empirical type this
// package had before every step law became a Discrete: over n sample
// values, CCDF(x) = (n − #{v ≤ x})/n, the mean is Σv/n, and
// QuantileCCDF(u) is the smallest sample value whose own CCDF is at most u
// (the largest when none is). On random integer samples the Discrete over
// the tally must give the CCDF and the mean bit for bit, at every atom and
// every midpoint between atoms: NewDiscrete sums in the raw
// multiplicities and divides by their total once, where normalizing each
// weight first moves last bits. The quantile rule is checked at every k/n
// and its two float neighbours. Empirical itself indexed the sorted sample
// at ⌊n·u⌋+1 instead, which disagrees with the rule on about one probe in
// 150 — where n·u rounds across an integer — and no golden output
// depended on the difference; the test logs the count.
func TestDiscreteFromTallyIsTheEmpiricalLaw(t *testing.T) {
	g := randx.New(29)
	heavy := ParetoWithMean(9.6, 1.5)
	probes, indexRuleMisses := 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 1 + g.IntN(3000)
		spread := 1 + g.IntN(1000)
		sample := make([]float64, n)
		for i := range sample {
			if trial%2 == 0 {
				sample[i] = float64(1 + g.IntN(spread))
			} else {
				sample[i] = math.Max(1, math.Round(heavy.Rand(g)))
			}
		}
		sorted := slices.Sorted(slices.Values(sample))
		d := NewDiscrete(Tally(sample))

		ccdf := func(x float64) float64 {
			return float64(n-sort.Search(n, func(i int) bool { return sorted[i] > x })) / float64(n)
		}
		var sum float64
		for _, v := range sorted {
			sum += v // integers: exact in any order
		}
		if got, want := d.Mean(), sum/float64(n); got != want {
			t.Fatalf("trial %d: Mean() = %.17g, want Σv/n = %.17g", trial, got, want)
		}
		for i, v := range sorted {
			xs := []float64{v, v - 0.5}
			if i+1 < n && sorted[i+1] != v {
				xs = append(xs, (v+sorted[i+1])/2)
			}
			for _, x := range xs {
				if got, want := d.CCDF(x), ccdf(x); got != want {
					t.Fatalf("trial %d (n=%d): CCDF(%g) = %.17g, want %.17g", trial, n, x, got, want)
				}
			}
		}

		for k := 0; k <= n; k++ {
			u0 := float64(k) / float64(n)
			for _, u := range []float64{math.Nextafter(u0, -1), u0, math.Nextafter(u0, 2)} {
				probes++
				want := sorted[n-1]
				if i := sort.Search(n, func(i int) bool { return ccdf(sorted[i]) <= u }); i < n {
					want = sorted[i]
				}
				if got := d.QuantileCCDF(u); got != want {
					t.Fatalf("trial %d (n=%d): QuantileCCDF(%.17g) = %g, want %g", trial, n, u, got, want)
				}
				idx := min(max(int(math.Floor(float64(n)*u))+1, 1), n)
				if sorted[n-idx] != want {
					indexRuleMisses++
				}
			}
		}
	}
	t.Logf("the ⌊n·u⌋+1 index rule disagrees on %d of %d quantile probes", indexRuleMisses, probes)
}
