package randx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds must give equal streams")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds gave %d/100 identical outputs", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	g := New(7)
	a := g.Derive(1)
	b := g.Derive(2)
	a2 := g.Derive(1)
	if a.Uint64() != a2.Uint64() {
		t.Error("Derive with the same id must be reproducible")
	}
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Error("Derive with different ids should differ")
	}
	// Deriving must not consume parent state.
	g1 := New(7)
	g2 := New(7)
	_ = g1.Derive(99)
	if g1.Uint64() != g2.Uint64() {
		t.Error("Derive consumed parent state")
	}
}

// TestDerivePCGMatchesDerive: the value-type stream draws exactly what the
// *RNG of the same id draws, in both Float64 and Uint64, interleaved.
func TestDerivePCGMatchesDerive(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		g := New(seed)
		for id := uint64(0); id < 300; id++ {
			want := g.Derive(id * 0x51ed270b)
			got := g.DerivePCG(id * 0x51ed270b)
			for i := 0; i < 20; i++ {
				if i%3 == 2 {
					if w, v := want.Uint64(), got.Uint64(); v != w {
						t.Fatalf("seed %d id %d draw %d: Uint64 %d, want %d", seed, id, i, v, w)
					}
					continue
				}
				if w, v := want.Float64(), got.Float64(); v != w {
					t.Fatalf("seed %d id %d draw %d: Float64 %v, want %v", seed, id, i, v, w)
				}
			}
		}
	}
}

// moments draws n variates and returns their sample mean and variance.
func moments(n int, draw func() float64) (mean, variance float64) {
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := draw()
		sum += x
		sum2 += x * x
	}
	mean = sum / float64(n)
	variance = sum2/float64(n) - mean*mean
	return mean, variance
}

func TestBinomialMoments(t *testing.T) {
	g := New(1)
	cases := []struct {
		n int
		p float64
	}{
		{1, 0.5}, {10, 0.1}, {32, 0.9}, {100, 0.01},
		{1000, 0.3}, {50000, 0.001}, {200000, 0.5}, {25000, 0.08},
	}
	const draws = 20000
	for _, c := range cases {
		mean, variance := moments(draws, func() float64 {
			return float64(g.Binomial(c.n, c.p))
		})
		wantMean := float64(c.n) * c.p
		wantVar := float64(c.n) * c.p * (1 - c.p)
		seMean := math.Sqrt(wantVar / draws)
		if math.Abs(mean-wantMean) > 5*seMean+1e-9 {
			t.Errorf("Binomial(%d,%g): mean %g, want %g +- %g", c.n, c.p, mean, wantMean, 5*seMean)
		}
		if wantVar > 0 && math.Abs(variance-wantVar) > 0.1*wantVar+5*seMean {
			t.Errorf("Binomial(%d,%g): var %g, want %g", c.n, c.p, variance, wantVar)
		}
	}
}

func TestBinomialBounds(t *testing.T) {
	g := New(2)
	for i := 0; i < 5000; i++ {
		k := g.Binomial(100, 0.37)
		if k < 0 || k > 100 {
			t.Fatalf("Binomial out of range: %d", k)
		}
	}
	if g.Binomial(0, 0.5) != 0 {
		t.Error("Binomial(0,p) must be 0")
	}
	if g.Binomial(10, 0) != 0 {
		t.Error("Binomial(n,0) must be 0")
	}
	if g.Binomial(10, 1) != 10 {
		t.Error("Binomial(n,1) must be n")
	}
	if g.Binomial(-3, 0.5) != 0 {
		t.Error("Binomial(-n,p) must be 0")
	}
}

func TestBinomialSmallCountDistribution(t *testing.T) {
	// Exactness where it matters for the paper: P{X=0} for a small flow.
	// A flow of 5 packets sampled at 10% vanishes with probability 0.9^5.
	g := New(3)
	const draws = 400000
	zeros := 0
	for i := 0; i < draws; i++ {
		if g.Binomial(5, 0.1) == 0 {
			zeros++
		}
	}
	want := math.Pow(0.9, 5)
	got := float64(zeros) / draws
	se := math.Sqrt(want * (1 - want) / draws)
	if math.Abs(got-want) > 5*se {
		t.Errorf("P{Bin(5,0.1)=0} = %g, want %g +- %g", got, want, 5*se)
	}
}

func TestBinomialLargeNChiSquareish(t *testing.T) {
	// Check a handful of point probabilities on the mode-inversion path.
	g := New(4)
	n, p := 2000, 0.01 // mean 20, uses mode inversion
	const draws = 200000
	counts := make(map[int]int)
	for i := 0; i < draws; i++ {
		counts[g.Binomial(n, p)]++
	}
	for _, k := range []int{10, 15, 20, 25, 30} {
		want := binomialPMF(k, n, p)
		got := float64(counts[k]) / draws
		se := math.Sqrt(want * (1 - want) / draws)
		if math.Abs(got-want) > 6*se {
			t.Errorf("P{Bin(%d,%g)=%d} = %g, want %g +- %g", n, p, k, got, want, 6*se)
		}
	}
}

func binomialPMF(k, n int, p float64) float64 {
	ln1, _ := math.Lgamma(float64(n) + 1)
	lk1, _ := math.Lgamma(float64(k) + 1)
	lnk1, _ := math.Lgamma(float64(n-k) + 1)
	return math.Exp(ln1 - lk1 - lnk1 + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

func TestParetoMomentsAndSupport(t *testing.T) {
	g := New(6)
	a, beta := 3.2, 1.5
	const draws = 2_000_000
	var sum float64
	for i := 0; i < draws; i++ {
		x := g.Pareto(a, beta)
		if x < a {
			t.Fatalf("Pareto variate %g below scale %g", x, a)
		}
		sum += x
	}
	mean := sum / draws
	want := a * beta / (beta - 1)
	// beta=1.5 has infinite variance; the sample mean converges slowly, so
	// accept a generous band.
	if mean < 0.8*want || mean > 1.3*want {
		t.Errorf("Pareto mean %g, want about %g", mean, want)
	}
}

func TestParetoTailExponent(t *testing.T) {
	g := New(7)
	a, beta := 1.0, 2.0
	const draws = 500000
	over := 0
	threshold := 10.0
	for i := 0; i < draws; i++ {
		if g.Pareto(a, beta) > threshold {
			over++
		}
	}
	want := math.Pow(threshold/a, -beta)
	got := float64(over) / draws
	se := math.Sqrt(want * (1 - want) / draws)
	if math.Abs(got-want) > 6*se {
		t.Errorf("P{X>%g} = %g, want %g", threshold, got, want)
	}
}

func TestExponentialAndLognormal(t *testing.T) {
	g := New(8)
	const draws = 300000
	mean, _ := moments(draws, func() float64 { return g.Exponential(13) })
	if math.Abs(mean-13) > 0.3 {
		t.Errorf("Exponential mean %g, want 13", mean)
	}
	mu, sigma := 1.0, 0.5
	mean, _ = moments(draws, func() float64 { return g.Lognormal(mu, sigma) })
	want := math.Exp(mu + sigma*sigma/2)
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("Lognormal mean %g, want %g", mean, want)
	}
}

func TestMultinomialConservation(t *testing.T) {
	g := New(9)
	ps := []float64{0.1, 0.2, 0.3, 0.25, 0.15}
	for trial := 0; trial < 200; trial++ {
		n := g.IntN(10000)
		counts := g.Multinomial(nil, n, ps)
		if len(counts) != len(ps) {
			t.Fatalf("got %d categories, want %d", len(counts), len(ps))
		}
		total := 0
		for _, c := range counts {
			if c < 0 {
				t.Fatalf("negative count %d", c)
			}
			total += c
		}
		if total != n {
			t.Fatalf("counts sum to %d, want %d", total, n)
		}
	}
}

func TestMultinomialMarginals(t *testing.T) {
	g := New(10)
	ps := []float64{0.5, 0.3, 0.2}
	const draws = 30000
	n := 100
	sums := make([]float64, 3)
	for i := 0; i < draws; i++ {
		counts := g.Multinomial(nil, n, ps)
		for j, c := range counts {
			sums[j] += float64(c)
		}
	}
	for j, p := range ps {
		got := sums[j] / draws
		want := float64(n) * p
		se := math.Sqrt(float64(n)*p*(1-p)/draws) * 5
		if math.Abs(got-want) > se+0.05 {
			t.Errorf("category %d mean %g, want %g", j, got, want)
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := New(11)
	for i := 0; i < 10000; i++ {
		x := g.Uniform(3, 7)
		if x < 3 || x >= 7 {
			t.Fatalf("Uniform(3,7) produced %g", x)
		}
	}
}

func BenchmarkBinomialSmall(b *testing.B) {
	g := New(1)
	for i := 0; i < b.N; i++ {
		_ = g.Binomial(10, 0.01)
	}
}

func BenchmarkBinomialLarge(b *testing.B) {
	g := New(1)
	for i := 0; i < b.N; i++ {
		_ = g.Binomial(25000, 0.1)
	}
}
