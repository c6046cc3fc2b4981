package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBrentSimpleRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	got, err := BrentBracket(f, 0, f(0), 2, f(2), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, math.Sqrt2, 1e-10) {
		t.Errorf("root = %.15g, want sqrt(2)", got)
	}
}

func TestBrentEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x - 1 }
	got, err := BrentBracket(f, 1, f(1), 5, f(5), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("root = %g, want 1", got)
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := BrentBracket(f, -1, f(-1), 1, f(1), 1e-12); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBrentSteepFunction(t *testing.T) {
	// erfc-style misranking probability equations are steep in log(p);
	// verify BrentBracket handles an exponential-scale crossing.
	target := 1e-3
	f := func(lp float64) float64 {
		p := math.Exp(lp)
		return 0.5*math.Erfc(10*math.Sqrt(p/(1-p))) - target
	}
	lo, hi := math.Log(1e-9), math.Log(0.999)
	lp, err := BrentBracket(f, lo, f(lo), hi, f(hi), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if v := f(lp); math.Abs(v) > 1e-9 {
		t.Errorf("residual at root = %g", v)
	}
}

func TestBrentRandomCubics(t *testing.T) {
	f := func(seed uint16) bool {
		// Random cubic with a root in [0, 10].
		r := float64(seed%1000)/100 + 0.001
		g := func(x float64) float64 { return (x - r) * (x*x + 1) }
		xb, err := BrentBracket(g, -1, g(-1), 11, g(11), 1e-12)
		return err == nil && almostEqual(xb, r, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBrentBracketMatchesBrent: BrentBracket is handed the endpoint
// values, so it must never evaluate f at a or b, on every case above.
func TestBrentBracketMatchesBrent(t *testing.T) {
	steep := func(lp float64) float64 {
		p := math.Exp(lp)
		return 0.5*math.Erfc(10*math.Sqrt(p/(1-p))) - 1e-3
	}
	type rootCase struct {
		name      string
		f         Func1
		a, b, tol float64
	}
	cases := []rootCase{
		{"simple", func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12},
		{"endpoint", func(x float64) float64 { return x - 1 }, 1, 5, 1e-12},
		{"no bracket", func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12},
		{"steep", steep, math.Log(1e-9), math.Log(0.999), 1e-12},
	}
	for seed := 0; seed < 1000; seed += 37 {
		r := float64(seed)/100 + 0.001
		cases = append(cases, rootCase{"cubic", func(x float64) float64 { return (x - r) * (x*x + 1) }, -1, 11, 1e-12})
	}
	for _, c := range cases {
		counted := func(x float64) float64 {
			if x == c.a || x == c.b {
				t.Errorf("%s: BrentBracket re-evaluated the endpoint %g", c.name, x)
			}
			return c.f(x)
		}
		BrentBracket(counted, c.a, c.f(c.a), c.b, c.f(c.b), c.tol)
	}
}
