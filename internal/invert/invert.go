// Package invert estimates the original flow-size distribution from the
// per-flow packet counts a sampling monitor observed at rate p — the
// inverse problem of everything else in this module: the models predict
// what sampling does to a known distribution, the inverters recover the
// distribution from what sampling left behind.
//
// Four estimators with increasing fidelity (and cost) implement the
// common Estimator interface:
//
//   - Naive: rescale every sampled count by 1/p. The classical baseline;
//     unbiased for totals but blind to the flows sampling missed, so the
//     body of the estimated distribution starts at 1/p and the flow count
//     is the observed one.
//   - TailScaling: the rescaling law of Chabchoub et al. — binomial
//     thinning preserves a power-law tail exponent, so a Hill fit on the
//     sampled counts gives the tail index and the rescaled upper order
//     statistics give the tail location. The body below the tail
//     threshold stays the rescaled empirical; the two are spliced as a
//     Mixture.
//   - Parametric: the Duffield-style Pareto fit — a Hill tail index, then
//     the original flow count and mean by a fixed point on the Pareto
//     model's missed-flow probability.
//   - EM: full-distribution inversion in the spirit of Clegg et al. —
//     maximum-likelihood estimation of the size pmf over a discretized
//     support under the zero-truncated binomial thinning kernel
//     P{K = k | S = s} = Binom(s, p) at k, fitted by EM with an explicit
//     missed-flow (k = 0) completion step. Recovers the body the others
//     cannot see.
//
// Every estimate carries a dist.SizeDist (an Empirical, a Mixture, a
// Pareto, or a Discrete over the EM grid), so consumers — the adaptive
// controller, the streaming monitor's per-bin summaries, the analytical
// models — plug the inverted distribution wherever a size law goes.
package invert

import (
	"fmt"
	"math"
	"sort"

	"flowrank/internal/dist"
	"flowrank/internal/numeric"
)

// Estimate is one inverted view of a sampled bin.
type Estimate struct {
	// Dist is the estimated original flow-size distribution (packets).
	Dist dist.SizeDist
	// Mean is the estimated mean original flow size, E[S].
	Mean float64
	// TailIndex is the fitted Pareto tail exponent, or 0 when the tail
	// was not identifiable (too few flows, degenerate upper tail).
	TailIndex float64
	// FlowCount estimates the number of original flows, including the
	// flows sampling missed entirely. The Naive estimator reports the
	// observed count unchanged.
	FlowCount float64
	// Method names the estimator that produced this estimate.
	Method string
}

// Estimator turns per-flow sampled packet counts (each >= 1: a flow is
// observed only when at least one of its packets was kept) at sampling
// rate p into an Estimate. Implementations canonicalize the input
// internally (sorting or histogramming), so the estimate depends only on
// the multiset of counts — never on their order.
type Estimator interface {
	Invert(sampledCounts []float64, p float64) (Estimate, error)
	Name() string
}

// Compile-time interface checks.
var (
	_ Estimator = Naive{}
	_ Estimator = TailScaling{}
	_ Estimator = EM{}
	_ Estimator = Parametric{}
)

// validate rejects inputs no estimator can work with.
func validate(counts []float64, p float64) error {
	if len(counts) == 0 {
		return fmt.Errorf("invert: no sampled flows")
	}
	if !(p > 0 && p <= 1) {
		return fmt.Errorf("invert: sampling rate %g outside (0, 1]", p)
	}
	for _, c := range counts {
		if !(c >= 1) || math.IsInf(c, 0) {
			return fmt.Errorf("invert: sampled count %g (observed flows have >= 1 sampled packet)", c)
		}
	}
	return nil
}

// sortedCopy canonicalizes the input multiset.
func sortedCopy(counts []float64) []float64 {
	s := make([]float64, len(counts))
	copy(s, counts)
	sort.Float64s(s)
	return s
}

// Hill returns the Hill estimator of the Pareto tail index from the k
// largest values of sizes: the reciprocal mean log-excess over the k-th
// order statistic. Larger k lowers variance but admits bias from the
// non-tail body; k of a few percent of the sample is customary. The
// estimator is scale-invariant, so it applies to sampled counts and
// rescaled counts alike — thinning preserves the tail exponent.
func Hill(sizes []float64, k int) (float64, error) {
	n := len(sizes)
	if k < 2 || k >= n {
		return 0, fmt.Errorf("invert: Hill estimator needs 2 <= k < n, got k=%d n=%d", k, n)
	}
	sorted := sortedCopy(sizes)
	threshold := sorted[n-k]
	if threshold <= 0 {
		return 0, fmt.Errorf("invert: non-positive threshold %g", threshold)
	}
	var sum float64
	for _, v := range sorted[n-k:] {
		sum += math.Log(v / threshold)
	}
	if sum <= 0 {
		return 0, fmt.Errorf("invert: degenerate tail (all top-%d values equal)", k)
	}
	return float64(k) / sum, nil
}

// hillDefaultK is the default order-statistic count for tail fits: 2% of
// the sample, at least 10.
func hillDefaultK(n int) int {
	k := n / 50
	if k < 10 {
		k = 10
	}
	return k
}

// MissProbability returns the probability that a flow drawn from d leaves
// no sampled packet at rate p: E[(1-p)^S]. It is the quantity that
// converts an observed flow count into an original one (Duffield et al.).
//
// The expectation is linear in the law, so it is taken over d's parts
// (dist.Decompose): the atoms of a step law — the Discrete EM returns, an
// Empirical body — are summed exactly, and each smooth leaf is integrated
// in its own quantile space, E[(1-p)^S] = ∫_0^1 exp(S(u)·log(1-p)) du,
// where it has no jumps.
func MissProbability(d dist.SizeDist, p float64) float64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return 1
	}
	logq := math.Log1p(-p)
	parts := dist.Decompose(d)
	var sum numeric.KahanSum
	for _, a := range parts.Atoms {
		sum.Add(a.Mass * math.Exp(a.Value*logq))
	}
	var q numeric.Quad
	for _, leaf := range parts.Smooth {
		f := func(u float64) float64 { return math.Exp(leaf.Dist.QuantileCCDF(u) * logq) }
		sum.Add(leaf.Weight * q.Integrate(f, 1e-10, 0, 1))
	}
	return sum.Sum()
}

// Naive is the 1/p-scaling baseline: every sampled count is multiplied by
// 1/p and the scaled sample is the estimate. It cannot see flows sampling
// missed, so its distribution has no mass below 1/p and FlowCount is the
// observed count.
type Naive struct{}

// Name implements Estimator.
func (Naive) Name() string { return "naive" }

// Invert implements Estimator.
func (Naive) Invert(counts []float64, p float64) (Estimate, error) {
	if err := validate(counts, p); err != nil {
		return Estimate{}, err
	}
	scaled := sortedCopy(counts)
	for i := range scaled {
		scaled[i] /= p
	}
	e := dist.NewEmpirical(scaled)
	est := Estimate{
		Dist:      e,
		Mean:      e.Mean(),
		FlowCount: float64(len(counts)),
		Method:    "naive",
	}
	// Hill is scale-invariant, so the rescaled sample carries the sampled
	// tail exponent unchanged.
	if idx, err := Hill(scaled, hillDefaultK(len(scaled))); err == nil {
		est.TailIndex = idx
	}
	return est, nil
}

// TailScaling is the Chabchoub-style tail inversion: a Hill fit on the
// sampled counts estimates the tail exponent (preserved by thinning), the
// rescaled order statistics locate the tail, and the estimate splices a
// Pareto tail above the threshold onto the rescaled empirical body below
// it. FlowCount inverts the miss probability of the spliced law.
type TailScaling struct{}

// tailFraction is the fraction of the sample TailScaling treats as tail
// (at least 10 flows).
const tailFraction = 0.02

// Name implements Estimator.
func (TailScaling) Name() string { return "tail" }

// Invert implements Estimator.
func (TailScaling) Invert(counts []float64, p float64) (Estimate, error) {
	if err := validate(counts, p); err != nil {
		return Estimate{}, err
	}
	n := len(counts)
	k := int(tailFraction * float64(n))
	if k < 10 {
		k = 10
	}
	if k >= n {
		return Estimate{}, fmt.Errorf("invert: tail fit needs more than %d flows, got %d", k, n)
	}
	alpha, err := Hill(counts, k)
	if err != nil {
		return Estimate{}, err
	}
	if alpha <= 1.05 {
		// A Hill fit at or below 1 gives the spliced Pareto an infinite
		// mean, which would poison every downstream consumer (the fitted
		// model, the controller, the stream summary). Clamp like
		// Parametric does and report the clamped exponent, keeping the
		// estimate self-consistent.
		alpha = 1.05
	}
	scaled := sortedCopy(counts)
	for i := range scaled {
		scaled[i] /= p
	}
	threshold := scaled[n-k]
	body := scaled[:n-k]
	w := float64(k) / float64(n)
	spliced, err := dist.NewMixture(
		dist.Component{Weight: 1 - w, Dist: dist.NewEmpirical(body)},
		dist.Component{Weight: w, Dist: dist.Pareto{Scale: threshold, Shape: alpha}},
	)
	if err != nil {
		return Estimate{}, fmt.Errorf("invert: splicing tail: %w", err)
	}
	est := Estimate{
		Dist:      spliced,
		Mean:      spliced.Mean(),
		TailIndex: alpha,
		Method:    "tail",
	}
	if miss := MissProbability(spliced, p); miss < 1 {
		est.FlowCount = float64(n) / (1 - miss)
	} else {
		est.FlowCount = float64(n)
	}
	return est, nil
}

// Parametric is the classic population inversion: fit a Pareto tail
// index by Hill (clamped to >= 1.05 so the fitted mean stays finite), then
// recover the original flow count and mean by fixed-point iteration on the
// missed-flow probability of a Pareto model — the Duffield-style inversion.
type Parametric struct{}

// Name implements Estimator.
func (Parametric) Name() string { return "parametric" }

// Invert implements Estimator.
func (Parametric) Invert(counts []float64, p float64) (Estimate, error) {
	if err := validate(counts, p); err != nil {
		return Estimate{}, err
	}
	beta, err := Hill(counts, hillDefaultK(len(counts)))
	if err != nil {
		return Estimate{}, err
	}
	if beta <= 1.05 {
		beta = 1.05
	}
	var packets float64
	for _, c := range counts {
		packets += c
	}
	nEst, meanEst, err := estimatePopulation(len(counts), int64(math.Round(packets)), p, beta)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Dist:      dist.ParetoWithMean(meanEst, beta),
		Mean:      meanEst,
		TailIndex: beta,
		FlowCount: nEst,
		Method:    "parametric",
	}, nil
}

// estimatePopulation is Parametric's fixed point: given the number of
// sampled flows (>= 1 sampled packet), the total sampled packets, and the
// rate, it estimates the true flow count and true mean flow size by
// fixed-point iteration on a Pareto model with the given tail index.
func estimatePopulation(sampledFlows int, sampledPackets int64, p, beta float64) (nEst float64, meanEst float64, err error) {
	if sampledFlows <= 0 || sampledPackets <= 0 {
		return 0, 0, fmt.Errorf("invert: empty sampled bin")
	}
	if p <= 0 || p > 1 {
		return 0, 0, fmt.Errorf("invert: rate %g outside (0, 1]", p)
	}
	if beta <= 1 {
		return 0, 0, fmt.Errorf("invert: tail index %g <= 1 has no finite mean", beta)
	}
	// Initial guess: no flows missed.
	nEst = float64(sampledFlows)
	meanEst = float64(sampledPackets) / p / nEst
	for iter := 0; iter < 60; iter++ {
		d := dist.ParetoWithMean(meanEst, beta)
		miss := MissProbability(d, p)
		if miss >= 1 {
			return 0, 0, fmt.Errorf("invert: sampling rate too low to invert")
		}
		nNext := float64(sampledFlows) / (1 - miss)
		meanNext := float64(sampledPackets) / p / nNext
		if meanNext < 1 {
			meanNext = 1
		}
		if math.Abs(nNext-nEst) < 0.5 && math.Abs(meanNext-meanEst) < 1e-6*meanEst {
			return nNext, meanNext, nil
		}
		nEst, meanEst = nNext, meanNext
	}
	return nEst, meanEst, nil
}
