package invert

import (
	"fmt"
	"math"
	"sort"

	"flowrank/internal/dist"
	"flowrank/internal/numeric"
)

// EM is the full-distribution inversion: nonparametric maximum-likelihood
// estimation of the original size pmf over a discretized support under
// the binomial thinning kernel, fitted by expectation-maximization with
// zero-truncation handling (the flows sampling missed entirely re-enter
// through an explicit k = 0 completion step, so the estimated pmf covers
// the body the observed counts cannot see directly).
//
// The support grid is integer sizes 1..emGridLinear followed by a
// geometric progression up to the largest modeled size, always augmented
// with every distinct observed count (so at p = 1, where the kernel
// degenerates to the identity, the fit reproduces the observed histogram
// exactly). The kernel is evaluated once per distinct count, windowed to
// the support range where the binomial carries usable mass (zero below
// s = k, negligible far past the mode s ≈ k/p), so each EM sweep costs the
// sum of the window sizes rather than distinct × grid: tens of
// milliseconds for the typical monitor bin, and a bin with hundreds of
// thousands of flows and thousands of distinct counts stays around a
// second.
type EM struct{}

// The EM support grid and stopping rule.
const (
	// emGridLinear is the size up to which every integer is a support
	// point; beyond it the grid grows geometrically by emGridRatio.
	emGridLinear = 128
	emGridRatio  = 1.06
	// emMaxIter bounds the EM sweeps; emTol stops them once no pmf entry
	// moved by more than it.
	emMaxIter = 400
	emTol     = 1e-8
)

// Name implements Estimator.
func (EM) Name() string { return "em" }

// Invert implements Estimator.
func (EM) Invert(counts []float64, p float64) (Estimate, error) {
	sampled, ws := dist.Tally(counts)
	if err := validate(sampled, p); err != nil {
		return Estimate{}, err
	}
	// Counts are packet counts; float inputs exist only for interface
	// convenience, so they are rounded to the nearest integer.
	sampled, ws = mergeRuns(sampled, ws, math.Round)
	ks := make([]int, len(sampled))
	for i, v := range sampled {
		ks[i] = int(v)
	}
	support := supportGrid(ks, p)
	pi := fit(ks, ws, support, p)

	values := make([]float64, len(support))
	for j, s := range support {
		values[j] = float64(s)
	}
	d := dist.NewDiscrete(values, pi)

	n := float64(len(counts))
	est := Estimate{
		Dist:   d,
		Mean:   d.Mean(),
		Method: "em",
	}
	// Missed-flow completion: the truncation correction of the final fit
	// is the flow-count inverse.
	logq := math.Log1p(-p)
	f0 := 0.0
	for j, s := range support {
		f0 += pi[j] * math.Exp(float64(s)*logq)
	}
	if f0 < 1 {
		est.FlowCount = n / (1 - f0)
	} else {
		est.FlowCount = n
	}
	est.TailIndex = weightedTailIndex(values, pi, 0.02)
	return est, nil
}

// supportGrid builds the ascending integer support: dense up to
// emGridLinear, geometric beyond up to the largest modeled size
// 2 * max(count) / p (at least 4 / p and the largest count), plus every
// observed count (which makes the p = 1 identity kernel exact).
func supportGrid(ks []int, p float64) []int {
	maxK := ks[len(ks)-1]
	maxS := max(int(2*float64(maxK)/p), int(4/p), maxK)
	seen := make(map[int]bool)
	var grid []int
	add := func(s int) {
		if s >= 1 && s <= maxS && !seen[s] {
			seen[s] = true
			grid = append(grid, s)
		}
	}
	for s := 1; s <= emGridLinear && s <= maxS; s++ {
		add(s)
	}
	for x := float64(emGridLinear); x < float64(maxS); x *= emGridRatio {
		add(int(math.Ceil(x)))
	}
	add(maxS)
	for _, k := range ks {
		add(k)
	}
	sort.Ints(grid)
	return grid
}

// kernelRow is one observed count's slice of the thinning kernel:
// vals[j] = P{K = k | S = support[lo+j]}, windowed to the support range
// where the binomial carries usable mass.
type kernelRow struct {
	lo   int
	vals []float64
}

// fit runs the zero-truncated EM and returns the pmf over the support.
func fit(ks []int, ws []float64, support []int, p float64) []float64 {
	nK, nS := len(ks), len(support)

	// Kernel rows: rows[i] holds P{K = ks[i] | S = s} over the window of
	// support points where the binomial carries any usable mass. Below
	// s = k the pmf is exactly zero; above the mode s ≈ k/p it decays
	// monotonically, so the row stops once it falls 18 orders of
	// magnitude under its peak — the tail beyond contributes nothing to
	// an E-step in float64. The windows keep the sweep cost near-linear
	// in the support size instead of quadratic when the data carries
	// thousands of distinct counts (each of which is also a grid atom).
	rows := make([]kernelRow, nK)
	for i, k := range ks {
		lo := sort.SearchInts(support, k)
		vals := make([]float64, 0, 16)
		rowMax := 0.0
		for j := lo; j < nS; j++ {
			v := numeric.BinomialPMF(k, support[j], p)
			if v > rowMax {
				rowMax = v
			}
			vals = append(vals, v)
			if float64(support[j])*p > float64(k) && v < rowMax*1e-18 {
				break
			}
		}
		rows[i] = kernelRow{lo: lo, vals: vals}
	}
	logq := math.Log1p(-p)
	miss := make([]float64, nS)
	for j, s := range support {
		miss[j] = math.Exp(float64(s) * logq)
	}

	var n float64
	for _, w := range ws {
		n += w
	}

	// Initialize uniform over the support. A data-shaped start (projecting
	// each count to the atom nearest k/p) looks attractive but starves the
	// body below 1/p: EM's multiplicative updates grow mass from a
	// near-zero start only geometrically, so the flows sampling missed
	// would stay missing. Uniform lets the likelihood shape every region
	// from the first sweep.
	pi := make([]float64, nS)
	for j := range pi {
		pi[j] = 1 / float64(nS)
	}

	next := make([]float64, nS)
	for iter := 0; iter < emMaxIter; iter++ {
		for j := range next {
			next[j] = 0
		}
		// E-step over the observed counts: distribute each count's
		// multiplicity over the support in proportion to pi * kernel.
		for i := range ks {
			row := rows[i]
			win := pi[row.lo : row.lo+len(row.vals)]
			denom := 0.0
			for j, v := range row.vals {
				denom += win[j] * v
			}
			if denom <= 0 {
				continue // unexplainable count; the floor makes this moot
			}
			scale := ws[i] / denom
			out := next[row.lo : row.lo+len(row.vals)]
			for j, v := range row.vals {
				out[j] += scale * win[j] * v
			}
		}
		// Zero-truncation completion: the estimated (nHat - n) missed
		// flows are distributed in proportion to pi * missProbability.
		f0 := 0.0
		for j := range pi {
			f0 += pi[j] * miss[j]
		}
		nHat := n
		if f0 < 1 {
			nHat = n / (1 - f0)
		}
		if missed := nHat - n; missed > 0 && f0 > 0 {
			scale := missed / f0
			for j := range pi {
				next[j] += scale * pi[j] * miss[j]
			}
		}
		// M-step: normalize to the completed flow count.
		delta := 0.0
		for j := range next {
			next[j] /= nHat
			if d := math.Abs(next[j] - pi[j]); d > delta {
				delta = d
			}
		}
		pi, next = next, pi
		if delta < emTol {
			break
		}
	}
	return pi
}

// weightedTailIndex is the Hill estimator generalized to a weighted
// discrete distribution: over the atoms holding the top topMass of
// probability, the reciprocal mean log-excess above the threshold atom.
// It returns 0 when the tail is degenerate (fewer than two distinct atoms
// in the top mass, or zero log-excess).
func weightedTailIndex(values, weights []float64, topMass float64) float64 {
	if len(values) == 0 || !(topMass > 0) {
		return 0
	}
	// Find the threshold atom: the largest x0 with P{S > x0} >= topMass.
	tail := 0.0
	idx := len(values) - 1
	for ; idx >= 0; idx-- {
		tail += weights[idx]
		if tail >= topMass {
			break
		}
	}
	if idx <= 0 {
		return 0 // the whole distribution is "tail": no threshold below it
	}
	x0 := values[idx]
	if x0 <= 0 {
		return 0
	}
	var w, sum float64
	for j := idx + 1; j < len(values); j++ {
		w += weights[j]
		sum += weights[j] * math.Log(values[j]/x0)
	}
	if w <= 0 || sum <= 0 {
		return 0
	}
	return w / sum
}

// KolmogorovDistance returns the Kolmogorov–Smirnov statistic
// sup_x |P{A > x} - P{B > x}| between two size laws, evaluated over the
// probe set: each probe point and a point just below it (step laws attain
// their supremum at atoms, so for discrete A and B the probes should
// include both laws' atoms).
func KolmogorovDistance(a, b dist.SizeDist, probes []float64) float64 {
	var ks float64
	check := func(x float64) {
		if d := math.Abs(a.CCDF(x) - b.CCDF(x)); d > ks {
			ks = d
		}
	}
	for _, x := range probes {
		check(x)
		eps := 1e-9 * math.Max(1, math.Abs(x))
		check(x - eps)
	}
	return ks
}

// QuantileProbes returns an n-point probe grid for KolmogorovDistance:
// the quantiles of d at n log-spaced upper-tail probabilities between 1
// and 1/(4n), capturing both the body and the deep tail.
func QuantileProbes(d dist.SizeDist, n int) []float64 {
	if n < 2 {
		n = 2
	}
	probes := make([]float64, 0, n)
	lo := math.Log(1 / (4 * float64(n)))
	for i := 0; i < n; i++ {
		u := math.Exp(lo * float64(i) / float64(n-1))
		probes = append(probes, d.QuantileCCDF(u))
	}
	return probes
}

// String renders an Estimate compactly for reports and logs.
func (e Estimate) String() string {
	return fmt.Sprintf("%s: mean=%.4g tail=%.3g flows=%.4g", e.Method, e.Mean, e.TailIndex, e.FlowCount)
}
