package dist

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"flowrank/internal/randx"
)

// Discrete is a weighted discrete distribution over an ascending support
// of (value, probability) atoms: every step law in this module. A measured
// sample is the Discrete over its distinct values weighted by their
// multiplicities, NewDiscrete(Tally(sample)); the EM inversion
// (internal/invert) produces a probability vector over a support grid, and
// wrapping it in a Discrete hands every consumer a full SizeDist for free.
type Discrete struct {
	// values is the ascending support; weights[i] is P{S = values[i]}.
	values  []float64
	weights []float64
	// ccdf[i] = P{S > values[i]} (so ccdf[len-1] = 0), precomputed for
	// O(log n) CCDF/quantile/sampling lookups.
	ccdf []float64
	mean float64
}

// NewDiscrete builds a discrete distribution from parallel value/weight
// slices. Values must be strictly ascending, non-negative and finite,
// weights non-negative with a positive sum (they are normalized); both are
// copied. Atoms with zero weight are dropped. It panics on invalid input,
// like the other law constructors.
//
// The CCDF tails and the mean are summed in the caller's weights and
// divided by their total once, so integer multiplicities of a sample give
// exactly its empirical law: CCDF(values[i]) is (n − m)/n with m the
// number of sample values at or below values[i], and the mean is Σv/n.
func NewDiscrete(values, weights []float64) *Discrete {
	if len(values) == 0 || len(values) != len(weights) {
		panic(fmt.Sprintf("dist: NewDiscrete needs equal-length non-empty slices, got %d values, %d weights",
			len(values), len(weights)))
	}
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("dist: NewDiscrete weight[%d] = %g", i, w))
		}
		if !(values[i] >= 0) || math.IsInf(values[i], 1) {
			panic(fmt.Sprintf("dist: NewDiscrete value[%d] = %g", i, values[i]))
		}
		if i > 0 && values[i] <= values[i-1] {
			panic(fmt.Sprintf("dist: NewDiscrete values not strictly ascending at %d: %g <= %g",
				i, values[i], values[i-1]))
		}
		total += w
	}
	if !(total > 0) {
		panic("dist: NewDiscrete needs a positive total weight")
	}
	d := &Discrete{
		values:  make([]float64, 0, len(values)),
		weights: make([]float64, 0, len(values)),
	}
	for i, w := range weights {
		if w == 0 {
			continue
		}
		d.values = append(d.values, values[i])
		d.weights = append(d.weights, w)
	}
	d.ccdf = make([]float64, len(d.values))
	var tail, sum float64
	for i := len(d.values) - 1; i >= 0; i-- {
		d.ccdf[i] = tail / total
		tail += d.weights[i]
		sum += d.values[i] * d.weights[i]
		d.weights[i] /= total
	}
	d.mean = sum / total
	return d
}

// Tally sorts a copy of sample into its ascending distinct values and the
// number of times each occurs: the (value, weight) pairs NewDiscrete takes
// to build the sample's own step law. A NaN sorts first, as its own value.
func Tally(sample []float64) (values, counts []float64) {
	values = slices.Clone(sample)
	slices.Sort(values)
	counts = make([]float64, 0, 64)
	out := 0
	for _, v := range values {
		if out > 0 && values[out-1] == v {
			counts[out-1]++
			continue
		}
		values[out] = v
		counts = append(counts, 1)
		out++
	}
	return values[:out], counts
}

// NewDiscreteFromPMF wraps a pmf in the Discretize layout (pmf[s] is
// P{S = s packets}, pmf[0] unused) — the round trip
// NewDiscreteFromPMF(Discretize(d, max)) is the discretized view of d as
// a SizeDist.
func NewDiscreteFromPMF(pmf []float64) *Discrete {
	if len(pmf) < 2 {
		panic(fmt.Sprintf("dist: NewDiscreteFromPMF needs pmf of length >= 2, got %d", len(pmf)))
	}
	values := make([]float64, len(pmf)-1)
	for s := 1; s < len(pmf); s++ {
		values[s-1] = float64(s)
	}
	return NewDiscrete(values, pmf[1:])
}

// Len returns the number of atoms with positive probability.
func (d *Discrete) Len() int { return len(d.values) }

// CCDF returns P{S > x}.
func (d *Discrete) CCDF(x float64) float64 {
	// First atom strictly greater than x; all mass from there up counts.
	idx := sort.SearchFloat64s(d.values, x)
	for idx < len(d.values) && d.values[idx] <= x {
		idx++
	}
	if idx == 0 {
		return 1
	}
	return d.ccdf[idx-1]
}

// QuantileCCDF returns the generalized inverse of the step CCDF,
// inf{x : CCDF(x) <= u}, clamped to the support: u near 0 returns the
// largest atom, u >= 1 the smallest.
func (d *Discrete) QuantileCCDF(u float64) float64 {
	if u >= 1 {
		return d.values[0]
	}
	// ccdf is strictly decreasing over the kept atoms; find the first atom
	// whose tail-beyond probability is <= u.
	idx := sort.Search(len(d.ccdf), func(i int) bool { return d.ccdf[i] <= u })
	if idx == len(d.values) {
		idx = len(d.values) - 1
	}
	return d.values[idx]
}

// Mean returns the weighted mean of the atoms.
func (d *Discrete) Mean() float64 { return d.mean }

// Rand draws one atom by inverse-CDF lookup.
func (d *Discrete) Rand(g *randx.RNG) float64 {
	u := g.Float64() // uniform in [0, 1)
	// Draw the atom whose CCDF interval contains u: atom i covers
	// [ccdf[i], ccdf[i-1]) of upper-tail mass.
	idx := sort.Search(len(d.ccdf), func(i int) bool { return d.ccdf[i] <= u })
	if idx == len(d.values) {
		idx = len(d.values) - 1
	}
	return d.values[idx]
}

func (d *Discrete) String() string {
	return fmt.Sprintf("discrete(atoms=%d, mean=%.4g)", len(d.values), d.mean)
}
