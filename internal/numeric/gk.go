package numeric

import "math"

// Quad is a globally adaptive Gauss–Kronrod (7, 15) integrator with a
// relative tolerance: the interval with the largest error estimate is
// bisected until the estimates sum to no more than rel times the integral.
// That is the stopping rule a sum of non-negative terms can use — a
// relative error on every term is the same relative error on the sum —
// and, unlike a recursive rule with an absolute target per half, it spends
// nothing on stretches whose contribution is already below the target.
//
// The zero value is ready to use. A Quad keeps its interval list between
// calls, so one value serves a whole sequence of integrals without
// allocating; it must not be shared between goroutines.
type Quad struct {
	ivs []gkInterval
}

type gkInterval struct {
	a, b, val, err float64
}

// quadMaxIntervals bounds the subdivision of one integral. A smooth
// integrand given sensible breakpoints needs under twenty intervals; the
// bound is what makes a discontinuous or NaN integrand return (with the
// best estimate so far) instead of refining forever.
const quadMaxIntervals = 400

// Integrate returns the integral of f over [breaks[0], breaks[len-1]].
// The interior breakpoints seed the subdivision and must be non-decreasing;
// coincident ones are skipped. Like every adaptive rule this one sees the
// integrand only at its nodes, none of which is an interval's end: a front
// that has died away before the first node of a long interval is invisible
// to both rules of the pair. A caller that knows where its integrand's
// front ends says so with a breakpoint (internal/core derives them from the
// kernel's width), which also saves the bisections that would find it.
// Every abscissa is a pure function of the breakpoints and of the values f
// returned, so equal calls give bit-equal results.
func (q *Quad) Integrate(f Func1, rel float64, breaks ...float64) float64 {
	q.ivs = q.ivs[:0]
	for i := 1; i < len(breaks); i++ {
		if a, b := breaks[i-1], breaks[i]; b > a {
			q.ivs = append(q.ivs, gk15(f, a, b))
		}
	}
	for len(q.ivs) > 0 && len(q.ivs) < quadMaxIntervals {
		var total, errSum float64
		worst := 0
		for i, iv := range q.ivs {
			total += iv.val
			errSum += iv.err
			if iv.err > q.ivs[worst].err {
				worst = i
			}
		}
		// Negated so a NaN estimate stops the refinement and propagates.
		if !(errSum > rel*math.Abs(total)) {
			break
		}
		iv := q.ivs[worst]
		mid := 0.5 * (iv.a + iv.b)
		if !(iv.a < mid && mid < iv.b) {
			q.ivs[worst].err = 0 // at floating-point resolution
			continue
		}
		q.ivs[worst] = gk15(f, iv.a, mid)
		q.ivs = append(q.ivs, gk15(f, mid, iv.b))
	}
	var s KahanSum
	for _, iv := range q.ivs {
		s.Add(iv.val)
	}
	return s.Sum()
}

// The 15-point Kronrod abscissas on [0, 1) (the rule is symmetric) with
// their weights, and the weights of the embedded 7-point Gauss rule, which
// uses the odd-indexed abscissas. QUADPACK's qk15 tables.
var (
	gkNodes = [8]float64{
		0.991455371120812639206854697526329,
		0.949107912342758524526189684047851,
		0.864864423359769072789712788640926,
		0.741531185599394439863864773280788,
		0.586087235467691130294144838258730,
		0.405845151377397166906606412076961,
		0.207784955007898467600689403773245,
		0.000000000000000000000000000000000,
	}
	gkWeights = [8]float64{
		0.022935322010529224963732008058970,
		0.063092092629978553290700663189204,
		0.104790010322250183839876322541518,
		0.140653259715525918745189590510238,
		0.169004726639267902826583426598550,
		0.190350578064785409913256402421014,
		0.204432940075298892414161999234649,
		0.209482141084727828012999174891714,
	}
	gaussWeights = [4]float64{
		0.129484966168869693270611432679082,
		0.279705391489276667901467771423780,
		0.381830050505118944950369775488975,
		0.417959183673469387755102040816327,
	}
)

// gk15 applies the (7, 15) pair to [a, b]. The error estimate is
// QUADPACK's: the difference of the two rules, sharpened by how far the
// integrand departs from its mean over the interval (the 15-point value of
// a smooth integrand is far better than that difference), and floored at
// the rounding error of the sum itself.
func gk15(f Func1, a, b float64) gkInterval {
	c, h := 0.5*(a+b), 0.5*(b-a)
	fc := f(c)
	kron := gkWeights[7] * fc
	gauss := gaussWeights[3] * fc
	resabs := gkWeights[7] * math.Abs(fc)
	var lo, hi [7]float64
	for j := 0; j < 7; j++ {
		d := h * gkNodes[j]
		lo[j], hi[j] = f(c-d), f(c+d)
		kron += gkWeights[j] * (lo[j] + hi[j])
		resabs += gkWeights[j] * (math.Abs(lo[j]) + math.Abs(hi[j]))
		if j%2 == 1 {
			gauss += gaussWeights[j/2] * (lo[j] + hi[j])
		}
	}
	mean := 0.5 * kron
	resasc := gkWeights[7] * math.Abs(fc-mean)
	for j := 0; j < 7; j++ {
		resasc += gkWeights[j] * (math.Abs(lo[j]-mean) + math.Abs(hi[j]-mean))
	}
	resabs *= h
	resasc *= h
	err := math.Abs((kron - gauss) * h)
	if resasc != 0 && err != 0 {
		err = resasc * math.Min(1, math.Pow(200*err/resasc, 1.5))
	}
	const eps = 0x1p-52
	if resabs > math.SmallestNonzeroFloat64/(50*eps) {
		err = math.Max(err, 50*eps*resabs)
	}
	return gkInterval{a: a, b: b, val: kron * h, err: err}
}
