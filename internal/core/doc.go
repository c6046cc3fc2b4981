// Package core implements the analytical machinery of "Ranking flows from
// sampled traffic" (Barakat, Iannaccone, Diot — INRIA RR-5266 / CoNEXT
// 2005): the probability that packet sampling misranks two flows, and the
// expected number of swapped flow pairs when ranking or detecting the
// largest t flows among N under a given flow-size distribution.
//
// # Pairwise misranking (paper §3–4)
//
// MisrankExact evaluates Eq. (1): with flows of S1 < S2 packets sampled
// i.i.d. at rate p, the sampled sizes are Binomial and the pair is
// misranked when the smaller flow's sampled size is >= the larger's
// (ties and the both-zero outcome count as misranked). MisrankGaussian is
// the closed-form Normal approximation of Eq. (2),
//
//	Pm ≈ ½·erfc( |S2−S1| / sqrt(2(1/p−1)(S1+S2)) ),
//
// which is the form the general models build on. OptimalRate inverts either
// formula for the minimum sampling rate that keeps the misranking
// probability below a target (Figs. 1–2).
//
// # Ranking and detection models (paper §5–7)
//
// Model evaluates the two swapped-pairs metrics. Flow sizes follow any law
// of internal/dist. The outer integral, over the size of a top flow, is
// taken in quantile space u = CCDF(x), where the top-t membership weight
// concentrates on u ≲ t/N and the distribution needs no infinite-domain
// handling. The inner integrals, over the size of the other flow, are taken
// over sizes (eval.go): what is a step — the atoms of a sampled or inverted
// law, the whole-packet cells of the hybrid kernel — is summed exactly, and
// only the smooth Gaussian remainder goes to an adaptive quadrature, one
// continuous component of the law at a time, in logarithmic quantile space
// so that the sharp erfc front near equal sizes and the slowly varying far
// field are resolved by the same rule. The quadrature is asked for a
// relative error: every term of the metrics is non-negative, so ε on each
// inner integral is at most ε on the metric, and ε is set by what the
// metric's consumers can use (eval.go states the budget), not by an
// absolute number that means something different at every N.
//
// The direct summation of the paper's discrete formulas over a small pmf
// (DiscreteModel) and the quantile-space evaluator eval.go replaced are
// test references in this package's _test.go files: the continuous path is
// validated against them and against Monte-Carlo simulation, and
// production code has no second implementation to drift.
package core
