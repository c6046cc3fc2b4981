package core

import (
	"testing"
	"testing/quick"

	"flowrank/internal/numeric"
)

// The paper's own top-t membership weights take the count of larger flows
// as binomial. The model takes them in their Poisson limit (topprob.go);
// the binomial forms are kept here as the reference the limit is held to,
// and as the weights of DiscreteModel.

// binomialTopProb is Pt(i,t,N) of §5.2 with the count of larger flows
// Binomial(n-1, u).
func binomialTopProb(u float64, t, n int) float64 {
	if t <= 0 {
		return 0
	}
	if t >= n {
		return 1
	}
	return numeric.BinomialCDF(t-1, n-1, u)
}

// binomialTopPMF is topPMF with Binomial(n-2, u) counts.
func binomialTopPMF(dst []float64, u float64, t, n int) []float64 {
	dst = dst[:0]
	for k := 0; k < t; k++ {
		dst = append(dst, numeric.BinomialPMF(k, n-2, u))
	}
	return dst
}

// binomialJointTopProb is P*t(j,i,t,N) of §7.1 with the intermediate flows
// counted exactly: Σ_k pmfBig[k]·P{Bin(n-k-2, Pji) >= t-k-1}.
func binomialJointTopProb(pmfBig []float64, vSmall, uBig float64, t, n int) float64 {
	if t <= 0 || t >= n {
		return 0
	}
	pji := clamp01((vSmall - uBig) / (1 - uBig))
	var acc numeric.KahanSum
	for k := 0; k < t; k++ {
		if pmfBig[k] != 0 {
			acc.Add(pmfBig[k] * binomialSurvival(t-k-1, n-k-2, pji))
		}
	}
	return clamp01(acc.Sum())
}

// binomialSurvival returns P{Bin(n,p) >= k}, the upper tail including k,
// summed directly while it has fewer than 64 terms (numeric's direct-sum
// bound) so that a small tail keeps its precision.
func binomialSurvival(k, n int, p float64) float64 {
	switch {
	case k <= 0:
		return 1
	case k > n:
		return 0
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	// P{X >= k} = I_p(k, n-k+1).
	if n-k < 64 {
		var s numeric.KahanSum
		for i := k; i <= n; i++ {
			s.Add(numeric.BinomialPMF(i, n, p))
		}
		return clamp01(s.Sum())
	}
	return clamp01(numeric.RegIncBeta(float64(k), float64(n-k)+1, p))
}

func TestBinomialCDFSurvivalComplement(t *testing.T) {
	f := func(nRaw uint16, kRaw uint16, pRaw uint16) bool {
		n := int(nRaw%3000) + 1
		k := int(kRaw) % (n + 1)
		p := (float64(pRaw%999) + 0.5) / 1000
		cdf := numeric.BinomialCDF(k, n, p)
		sur := binomialSurvival(k+1, n, p)
		return almostEqual(cdf+sur, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBinomialSurvivalLargeN(t *testing.T) {
	// With N ~ 1e6 and tiny success probability the tail must stay finite
	// and match the Poisson limit.
	n := 1_000_000
	pp := 5.0 / float64(n)
	for k := 0; k <= 15; k++ {
		b := binomialSurvival(k, n, pp)
		po := 1 - numeric.PoissonCDF(k-1, 5.0)
		if !almostEqual(b, po, 1e-4) {
			t.Errorf("survival(k=%d): binomial %g vs poisson %g", k, b, po)
		}
	}
}

func BenchmarkBinomialSurvivalBeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = binomialSurvival(900, 100000, 0.001)
	}
}

// topWeights is one form of the top-t membership weights: Pt, the pmf of
// the count of larger flows P*t is built on, and P*t.
type topWeights struct {
	name  string
	prob  func(u float64, t, n int) float64
	pmf   func(dst []float64, u float64, t, n int) []float64
	joint func(pmfBig []float64, vSmall, uBig float64, t, n int) float64
}

var (
	poissonWeights  = topWeights{"poisson", topProb, topPMF, jointTopProb}
	binomialWeights = topWeights{"binomial", binomialTopProb, binomialTopPMF, binomialJointTopProb}
	bothWeights     = []topWeights{poissonWeights, binomialWeights}
)

func TestTopProbEdges(t *testing.T) {
	for _, w := range bothWeights {
		if got := w.prob(0.5, 0, 100); got != 0 {
			t.Errorf("%s t=0: %g, want 0", w.name, got)
		}
		if got := w.prob(0.5, 100, 100); got != 1 {
			t.Errorf("%s t>=n: %g, want 1", w.name, got)
		}
		if got := w.prob(0, 3, 100); got != 1 {
			t.Errorf("%s u=0 (largest possible flow): %g, want 1", w.name, got)
		}
		if got := w.prob(1, 3, 100); got > 1e-12 {
			t.Errorf("%s u=1 (smallest flow): %g, want ≈0", w.name, got)
		}
	}
}

func TestTopProbMonotone(t *testing.T) {
	// Decreasing in u (larger tail prob = smaller flow), increasing in t.
	for _, w := range bothWeights {
		prev := 1.1
		for _, u := range []float64{1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5} {
			v := w.prob(u, 5, 1000)
			if v > prev {
				t.Fatalf("%s Pt not decreasing in u at %g", w.name, u)
			}
			prev = v
		}
		prev = -0.1
		for tt := 1; tt < 20; tt++ {
			v := w.prob(0.005, tt, 1000)
			if v < prev {
				t.Fatalf("%s Pt not increasing in t at %d", w.name, tt)
			}
			prev = v
		}
	}
}

func TestPoissonTailAccuracy(t *testing.T) {
	// For the paper's N >= 1e5 regimes the Poisson limit of the binomial
	// membership weight is indistinguishable.
	n := 100000
	for _, tt := range []int{1, 5, 25} {
		for _, u := range []float64{1e-6, 1e-5, 1e-4, 5e-4} {
			exact := binomialTopProb(u, tt, n)
			approx := topProb(u, tt, n)
			if !almostEqual(exact, approx, 1e-3) {
				t.Errorf("t=%d u=%g: binomial %g vs poisson %g", tt, u, exact, approx)
			}
		}
	}
}

func TestJointTopProbReductions(t *testing.T) {
	n, tt := 10000, 5
	u := 3e-4
	for _, w := range bothWeights {
		pmfBig := w.pmf(nil, u, tt, n)

		// v -> 1 (the small flow is the smallest possible): the joint
		// probability reduces to the plain top-t membership among N-1 flows.
		joint := w.joint(pmfBig, 1, u, tt, n)
		want := w.prob(u, tt, n-1)
		if !almostEqual(joint, want, 1e-9) {
			t.Errorf("%s P*t(v=1) = %g, want Pt = %g", w.name, joint, want)
		}

		// v -> u (the two flows have identical sizes): only the k = t-1 term
		// survives, i.e. the larger flow sits exactly at the boundary.
		joint = w.joint(pmfBig, u, u, tt, n)
		if !almostEqual(joint, pmfBig[tt-1], 1e-9) {
			t.Errorf("%s P*t(v=u) = %g, want pmfBig[t-1] = %g", w.name, joint, pmfBig[tt-1])
		}

		// Joint never exceeds the marginal.
		for _, v := range []float64{u, 2 * u, 0.01, 0.3, 1} {
			j := w.joint(pmfBig, v, u, tt, n)
			if j > w.prob(u, tt, n-1)+1e-9 {
				t.Errorf("%s joint %g exceeds marginal at v=%g", w.name, j, v)
			}
		}
	}
}

func TestJointTopProbTEquals1(t *testing.T) {
	// §7.1: for t = 1 the detection and ranking problems coincide:
	// P*t(j,i,1,N) = Pt(i,1,N-1).
	n := 5000
	u := 2e-4
	for _, w := range bothWeights {
		pmfBig := w.pmf(nil, u, 1, n)
		for _, v := range []float64{u * 1.5, 0.001, 0.1, 1} {
			joint := w.joint(pmfBig, v, u, 1, n)
			want := w.prob(u, 1, n-1)
			if !almostEqual(joint, want, 1e-9) {
				t.Errorf("%s t=1, v=%g: joint %g, want %g", w.name, v, joint, want)
			}
		}
	}
}

func TestJointTopProbPoissonAccuracy(t *testing.T) {
	n := 200000
	tt := 10
	u := 4e-5
	pmfExact := binomialTopPMF(nil, u, tt, n)
	pmfPoisson := topPMF(nil, u, tt, n)
	for _, v := range []float64{u * 1.01, u * 2, u * 20, 0.01, 0.5} {
		exact := binomialJointTopProb(pmfExact, v, u, tt, n)
		approx := jointTopProb(pmfPoisson, v, u, tt, n)
		if !almostEqual(exact, approx, 2e-3) {
			t.Errorf("v=%g: exact %g vs poisson %g", v, exact, approx)
		}
	}
}

func TestJointTopProbMonotoneInV(t *testing.T) {
	// The further apart the two flows, the likelier the pair straddles the
	// boundary correctly: increasing in v.
	n, tt := 50000, 8
	u := 1e-4
	for _, w := range bothWeights {
		pmfBig := w.pmf(nil, u, tt, n)
		prev := -0.1
		for _, v := range []float64{u, u * 1.5, u * 3, u * 10, u * 100, 0.05, 0.4, 1} {
			j := w.joint(pmfBig, v, u, tt, n)
			if j < prev-1e-12 {
				t.Fatalf("%s joint not increasing in v at %g: %g < %g", w.name, v, j, prev)
			}
			prev = j
		}
	}
}
