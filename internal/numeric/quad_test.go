package numeric

import (
	"math"
	"testing"
)

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

func BenchmarkGaussLegendre64(b *testing.B) {
	f := func(x float64) float64 { return math.Exp(-x*x) * math.Cos(4*x) }
	GLNodes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GaussLegendre(f, -3, 3, 64)
	}
}
