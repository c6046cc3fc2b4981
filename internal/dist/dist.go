// Package dist provides the flow-size distributions the analytical models
// (internal/core), the trace synthesizer (internal/tracegen) and the
// adaptive controller (internal/adaptive) are parameterized by.
//
// Everything is expressed through the CCDF (complementary cumulative
// distribution function) and its inverse: the models integrate in quantile
// space u = CCDF(x), where the top-t membership weight of the paper
// concentrates on u ≲ t/N and heavy tails need no infinite-domain
// handling. A distribution therefore has to supply four operations: the
// CCDF, its inverse QuantileCCDF, the mean (for calibration and
// population inversion), and a deterministic sampler for the simulators.
//
// Five continuous laws cover the paper's workloads — Pareto (§6, the
// Sprint calibration), BoundedPareto (truncated tails), Exponential and
// Weibull (light tails, §6.2) and Lognormal (the short-tailed Abilene
// workload, §8.3). Discrete is the one step law: weighted atoms, whether
// a measured sample's distinct values with their multiplicities
// (NewDiscrete(Tally(sample))) or the EM inversion's output. Mixture
// combines any of them into multi-class traffic.
package dist

import "flowrank/internal/randx"

// SizeDist is a flow-size distribution in packets. Implementations are
// immutable values (or pointers to immutable state) and safe for
// concurrent use.
type SizeDist interface {
	// CCDF returns P{S > x}, non-increasing in x, with values in [0, 1].
	CCDF(x float64) float64

	// QuantileCCDF returns the size x at upper-tail probability u, i.e.
	// the (pseudo-)inverse of CCDF: CCDF(QuantileCCDF(u)) = u for
	// continuous laws and u in (0, 1]. Small u map to the large flows the
	// paper's models integrate over first.
	QuantileCCDF(u float64) float64

	// Mean returns E[S] (possibly +Inf for very heavy tails).
	Mean() float64

	// Rand draws one variate from the stream g. Equal streams give equal
	// draws.
	Rand(g *randx.RNG) float64

	// String describes the law and its parameters.
	String() string
}

// Compile-time interface checks for every law and combinator.
var (
	_ SizeDist = Pareto{}
	_ SizeDist = BoundedPareto{}
	_ SizeDist = Exponential{}
	_ SizeDist = Weibull{}
	_ SizeDist = Lognormal{}
	_ SizeDist = (*Discrete)(nil)
	_ SizeDist = (*Mixture)(nil)
)
