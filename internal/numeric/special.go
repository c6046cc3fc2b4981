package numeric

import (
	"math"
)

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// for a, b > 0 and x in [0, 1], evaluated with the continued-fraction
// expansion of Numerical Recipes (modified Lentz algorithm). Accuracy is
// near machine precision across the unit interval because the symmetric
// identity I_x(a,b) = 1 - I_{1-x}(b,a) is applied when x is past the
// distribution mean.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case a <= 0 || b <= 0:
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// using the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 400
		eps     = 3e-16
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// RegGammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func RegGammaQ(a, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case a <= 0 || x < 0:
		return math.NaN()
	case x == 0:
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQCF(a, x)
}

// gammaPSeries evaluates P(a, x) by its power series, valid for x < a+1.
func gammaPSeries(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-16
	)
	lga, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lga)
}

// gammaQCF evaluates Q(a, x) by continued fraction, valid for x >= a+1.
func gammaQCF(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-16
		fpmin   = 1e-300
	)
	lga, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h * math.Exp(-x+a*math.Log(x)-lga)
}

// ErfcRatio returns the misranking kernel 0.5*erfc(delta/scale) guarding
// the degenerate scale == 0 case: a zero scale means a deterministic
// comparison, so the result is 0 for delta > 0, 0.5 for delta == 0 (a tie
// decided against us) and 1 for delta < 0.
func ErfcRatio(delta, scale float64) float64 {
	if scale <= 0 {
		switch {
		case delta > 0:
			return 0
		case delta < 0:
			return 1
		default:
			return 0.5
		}
	}
	return 0.5 * math.Erfc(delta/scale)
}
