package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegIncBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		// I_x(1,1) = x (uniform CDF).
		{1, 1, 0.25, 0.25},
		{1, 1, 0.9, 0.9},
		// I_x(1,b) = 1-(1-x)^b.
		{1, 3, 0.5, 1 - 0.125},
		// I_x(a,1) = x^a.
		{3, 1, 0.5, 0.125},
		// Symmetric case: I_{1/2}(a,a) = 1/2.
		{5, 5, 0.5, 0.5},
		{0.3, 0.3, 0.5, 0.5},
	}
	for _, c := range cases {
		got := RegIncBeta(c.a, c.b, c.x)
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("I_%g(%g,%g) = %g, want %g", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestRegIncBetaComplement(t *testing.T) {
	f := func(aRaw, bRaw, xRaw uint16) bool {
		a := float64(aRaw%500)/10 + 0.1
		b := float64(bRaw%500)/10 + 0.1
		x := (float64(xRaw%999) + 0.5) / 1000
		lhs := RegIncBeta(a, b, x)
		rhs := 1 - RegIncBeta(b, a, 1-x)
		return almostEqual(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %g, want 0", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %g, want 1", got)
	}
	if !math.IsNaN(RegIncBeta(-1, 3, 0.5)) {
		t.Error("negative a should give NaN")
	}
}

func TestRegGammaQKnownValues(t *testing.T) {
	// Q(1, x) = e^{-x}, on both sides of the x = a+1 branch switch.
	for _, x := range []float64{0.1, 1, 3, 10} {
		got := RegGammaQ(1, x)
		want := math.Exp(-x)
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("Q(1,%g) = %g, want %g", x, got, want)
		}
	}
	// Q(1/2, x) = erfc(sqrt(x)).
	for _, x := range []float64{0.2, 1, 2.5, 9} {
		got := RegGammaQ(0.5, x)
		want := math.Erfc(math.Sqrt(x))
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("Q(0.5,%g) = %g, want %g", x, got, want)
		}
	}
}

// TestRegGammaComplement: the two evaluations behind RegGammaQ — the
// power series of P (x < a+1) and the continued fraction of Q — are
// complements wherever both converge, so Q is continuous across the
// branch switch.
func TestRegGammaComplement(t *testing.T) {
	f := func(aRaw, xRaw uint16) bool {
		a := float64(aRaw%800)/10 + 0.05
		x := a + float64(xRaw%200)/100 // within 1 of the switch at a+1
		return almostEqual(gammaPSeries(a, x)+gammaQCF(a, x), 1, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegGammaMonotoneInX(t *testing.T) {
	a := 3.7
	prev := 2.0
	for x := 0.0; x < 30; x += 0.25 {
		q := RegGammaQ(a, x)
		if q > prev+1e-13 {
			t.Fatalf("Q(a,x) not monotone at x=%g", x)
		}
		prev = q
	}
}

func TestErfcRatio(t *testing.T) {
	if got := ErfcRatio(0, 1); got != 0.5 {
		t.Errorf("ErfcRatio(0,1) = %g, want 0.5", got)
	}
	if got := ErfcRatio(1, 0); got != 0 {
		t.Errorf("ErfcRatio(1,0) = %g, want 0", got)
	}
	if got := ErfcRatio(-1, 0); got != 1 {
		t.Errorf("ErfcRatio(-1,0) = %g, want 1", got)
	}
	if got := ErfcRatio(0, 0); got != 0.5 {
		t.Errorf("ErfcRatio(0,0) = %g, want 0.5", got)
	}
	// Large positive argument decays toward zero, large negative toward one.
	if got := ErfcRatio(10, 1); got > 1e-20 {
		t.Errorf("ErfcRatio(10,1) = %g, want ~0", got)
	}
	if got := ErfcRatio(-10, 1); got < 1-1e-20 {
		t.Errorf("ErfcRatio(-10,1) = %g, want ~1", got)
	}
}
