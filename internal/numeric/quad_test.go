package numeric

import (
	"math"
	"testing"
)

func TestAdaptiveSimpsonPolynomial(t *testing.T) {
	// Simpson is exact for cubics.
	f := func(x float64) float64 { return 3*x*x - 2*x + 1 }
	got := AdaptiveSimpson(f, 0, 2, 1e-12, 30)
	want := 8.0 - 4.0 + 2.0
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("integral = %g, want %g", got, want)
	}
}

func TestAdaptiveSimpsonExp(t *testing.T) {
	got := AdaptiveSimpson(math.Exp, 0, 1, 1e-12, 40)
	want := math.E - 1
	if !almostEqual(got, want, 1e-11) {
		t.Errorf("integral = %.15g, want %.15g", got, want)
	}
}

func TestAdaptiveSimpsonReversedInterval(t *testing.T) {
	got := AdaptiveSimpson(math.Exp, 1, 0, 1e-12, 40)
	want := -(math.E - 1)
	if !almostEqual(got, want, 1e-11) {
		t.Errorf("reversed integral = %g, want %g", got, want)
	}
}

func TestAdaptiveSimpsonEmptyInterval(t *testing.T) {
	if got := AdaptiveSimpson(math.Exp, 2, 2, 1e-12, 40); got != 0 {
		t.Errorf("empty interval integral = %g, want 0", got)
	}
}

// A NaN integrand must come back as NaN after the first refinement, not
// after 2^maxDepth of them.
func TestAdaptiveSimpsonNaNTerminates(t *testing.T) {
	evals := 0
	f := func(float64) float64 { evals++; return math.NaN() }
	if got := AdaptiveSimpson(f, 0, 1, 1e-12, 40); !math.IsNaN(got) {
		t.Errorf("integral of NaN = %g", got)
	}
	if evals > 5 {
		t.Errorf("%d evaluations of a NaN integrand, want 5", evals)
	}
}

func TestAdaptiveSimpsonSharpGaussian(t *testing.T) {
	// A narrow Gaussian centred mid-interval; integral over R is sqrt(pi)*s.
	s := 0.01
	f := func(x float64) float64 { return math.Exp(-(x - 0.5) * (x - 0.5) / (s * s)) }
	got := AdaptiveSimpson(f, 0, 1, 1e-14, 50)
	want := math.SqrtPi * s
	if !almostEqual(got, want, 1e-8) {
		t.Errorf("narrow gaussian integral = %g, want %g", got, want)
	}
}

func TestGaussLegendreAgainstSimpson(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(3*x) * math.Exp(-x) }
	want := AdaptiveSimpson(f, 0, 4, 1e-13, 50)
	for _, n := range []int{16, 32, 64} {
		got := GaussLegendre(f, 0, 4, n)
		if !almostEqual(got, want, 1e-10) {
			t.Errorf("GL%d = %.14g, want %.14g", n, got, want)
		}
	}
}

func TestGLNodesProperties(t *testing.T) {
	for _, n := range []int{2, 5, 16, 33, 64} {
		nodes, weights := GLNodes(n)
		if len(nodes) != n || len(weights) != n {
			t.Fatalf("GLNodes(%d) returned %d nodes, %d weights", n, len(nodes), len(weights))
		}
		var wsum KahanSum
		for i, w := range weights {
			if w <= 0 {
				t.Errorf("n=%d: weight %d is %g, want > 0", n, i, w)
			}
			wsum.Add(w)
		}
		// Weights sum to the length of [-1,1].
		if !almostEqual(wsum.Sum(), 2, 1e-12) {
			t.Errorf("n=%d: weights sum to %g, want 2", n, wsum.Sum())
		}
		// Nodes strictly increasing inside (-1, 1).
		for i := 0; i < n; i++ {
			if nodes[i] <= -1 || nodes[i] >= 1 {
				t.Errorf("n=%d: node %d = %g outside (-1,1)", n, i, nodes[i])
			}
			if i > 0 && nodes[i] <= nodes[i-1] {
				t.Errorf("n=%d: nodes not increasing at %d", n, i)
			}
		}
	}
}

func TestGLExactForPolynomials(t *testing.T) {
	// n-point GL is exact for polynomials up to degree 2n-1.
	n := 5
	f := func(x float64) float64 {
		v := 1.0
		for i := 0; i < 9; i++ { // x^9, degree 9 = 2*5-1
			v *= x
		}
		return v + x*x
	}
	got := GaussLegendre(f, -1, 1, n)
	want := 2.0 / 3.0 // odd power integrates to 0, x^2 to 2/3
	if !almostEqual(got, want, 1e-13) {
		t.Errorf("GL5 on degree-9 poly = %g, want %g", got, want)
	}
}

func BenchmarkAdaptiveSimpson(b *testing.B) {
	f := func(x float64) float64 { return math.Exp(-x*x) * math.Cos(4*x) }
	for i := 0; i < b.N; i++ {
		_ = AdaptiveSimpson(f, -3, 3, 1e-10, 40)
	}
}

func BenchmarkGaussLegendre64(b *testing.B) {
	f := func(x float64) float64 { return math.Exp(-x*x) * math.Cos(4*x) }
	GLNodes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GaussLegendre(f, -3, 3, 64)
	}
}
