package dist

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"flowrank/internal/randx"
)

// Component is one class of a Mixture: a size law and its traffic share.
type Component struct {
	// Weight is the probability that a flow belongs to this class.
	// NewMixture normalizes weights to sum to one.
	Weight float64
	// Dist is the class's flow-size law.
	Dist SizeDist
}

// Mixture is the convex combination of several size laws — multi-class
// traffic such as "mostly mice with a Pareto elephant class", the scenario
// the flow-inversion literature (Clegg et al., Chabchoub et al.) swaps
// under the same estimator machinery. Its CCDF is the weighted sum of the
// component CCDFs; it has no closed-form quantile, so QuantileCCDF is the
// atom itself for a probability inside a CCDF jump (stepatlas.go) and a
// bracketed bisection of the CCDF everywhere else — about 50 CCDF
// evaluations a call, which the models in internal/core pay once per
// outer node since they integrate over sizes.
type Mixture struct {
	comps []Component

	// atlas is the lazily built step atlas (stepatlas.go): exact
	// quantiles for probabilities inside a CCDF jump, where bisection can
	// only approach the atom.
	atlasOnce sync.Once
	atlas     *stepAtlas
}

// NewMixture builds a mixture from the components, normalizing their
// weights. It returns an error when no component is given, a weight is
// not positive and finite, or a component law is nil.
func NewMixture(components ...Component) (*Mixture, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("dist: mixture needs at least one component")
	}
	total := 0.0
	for i, c := range components {
		if c.Dist == nil {
			return nil, fmt.Errorf("dist: mixture component %d has nil distribution", i)
		}
		if c.Weight <= 0 || math.IsInf(c.Weight, 0) || math.IsNaN(c.Weight) {
			return nil, fmt.Errorf("dist: mixture component %d weight %g must be positive and finite", i, c.Weight)
		}
		total += c.Weight
	}
	comps := make([]Component, len(components))
	for i, c := range components {
		comps[i] = Component{Weight: c.Weight / total, Dist: c.Dist}
	}
	return &Mixture{comps: comps}, nil
}

// CCDF returns the weighted sum of the component CCDFs.
func (m *Mixture) CCDF(x float64) float64 {
	var s float64
	for _, c := range m.comps {
		s += c.Weight * c.Dist.CCDF(x)
	}
	return s
}

// QuantileCCDF inverts the mixture CCDF: the pseudo-inverse
// sup{x : CCDF(x) >= u}, exact inside a jump and within the bisection's
// 1e-12 relative termination width elsewhere
// (TestMixtureQuantileIsPseudoInverse).
func (m *Mixture) QuantileCCDF(u float64) float64 {
	if u >= 1 {
		lo := math.Inf(1)
		for _, c := range m.comps {
			lo = math.Min(lo, c.Dist.QuantileCCDF(1))
		}
		return lo
	}
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	// Step regions first: for u inside a CCDF jump the atom location is
	// the exact pseudo-inverse, which bisection can only approach.
	if a := m.stepAtlas(); a != nil {
		if x, ok := a.lookup(u); ok {
			return x
		}
	}
	return m.quantileBisect(u)
}

// quantileBisect inverts off the jumps: monotone bisection between the
// component quantiles. The root is bracketed by the smallest and largest
// component quantiles at u: below the smallest every component's CCDF is
// at least u, above the largest at most u. Step-valued components
// (Discrete) can put the pseudo-inverse slightly outside that bracket,
// so quantileBracket widens it until it straddles u. 200 halvings reach
// float64 resolution from any finite bracket.
func (m *Mixture) quantileBisect(u float64) float64 {
	lo, hi := m.quantileBracket(u)
	for i := 0; i < 200 && hi-lo > 1e-12*(1+math.Abs(lo)); i++ {
		mid := lo + (hi-lo)/2
		if m.CCDF(mid) >= u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// quantileBracket returns lo <= hi with CCDF(lo) >= u >= CCDF(hi).
func (m *Mixture) quantileBracket(u float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, c := range m.comps {
		q := c.Dist.QuantileCCDF(u)
		lo = math.Min(lo, q)
		hi = math.Max(hi, q)
	}
	if lo == hi {
		return lo, hi
	}
	for i := 0; i < 64 && m.CCDF(lo) < u && lo > 0; i++ {
		lo = lo/2 - 1
	}
	if lo < 0 {
		lo = 0
	}
	for i := 0; i < 64 && m.CCDF(hi) > u; i++ {
		hi = hi*2 + 1
	}
	return lo, hi
}

// Mean returns the weighted sum of the component means.
func (m *Mixture) Mean() float64 {
	var s float64
	for _, c := range m.comps {
		s += c.Weight * c.Dist.Mean()
	}
	return s
}

// Rand picks a component by weight and draws from it.
func (m *Mixture) Rand(g *randx.RNG) float64 {
	u := g.Float64()
	acc := 0.0
	for _, c := range m.comps[:len(m.comps)-1] {
		acc += c.Weight
		if u < acc {
			return c.Dist.Rand(g)
		}
	}
	return m.comps[len(m.comps)-1].Dist.Rand(g)
}

func (m *Mixture) String() string {
	parts := make([]string, len(m.comps))
	for i, c := range m.comps {
		parts[i] = fmt.Sprintf("%.3g·%s", c.Weight, c.Dist)
	}
	return "mixture(" + strings.Join(parts, " + ") + ")"
}
