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
// Every estimate carries a dist.SizeDist (a Discrete over the rescaled
// counts or the EM grid, a Mixture, or a Pareto), so consumers — the
// adaptive controller, the streaming monitor's per-bin summaries, the
// analytical models — plug the inverted distribution wherever a size law
// goes.
package invert

import (
	"fmt"
	"math"

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
// rate p into an Estimate. Implementations tally the input once
// (dist.Tally: ascending distinct counts and their multiplicities), so
// the estimate depends only on the multiset of counts — never on their
// order. Invert must not keep sampledCounts past its return: the stream
// engine refills the slice for its next bin.
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

// validate rejects inputs no estimator can work with. values is the
// tally of the sampled counts, so only its two ends need checking: a NaN
// sorts first.
func validate(values []float64, p float64) error {
	if len(values) == 0 {
		return fmt.Errorf("invert: no sampled flows")
	}
	if !(p > 0 && p <= 1) {
		return fmt.Errorf("invert: sampling rate %g outside (0, 1]", p)
	}
	if lo, hi := values[0], values[len(values)-1]; !(lo >= 1) || math.IsInf(hi, 1) {
		return fmt.Errorf("invert: sampled counts span [%g, %g] (observed flows have >= 1 sampled packet)", lo, hi)
	}
	return nil
}

// mergeRuns replaces each value of a tally by f(value), f non-decreasing,
// and merges neighbouring runs that f maps to one value. It works in place
// and returns the shortened slices.
func mergeRuns(values, mult []float64, f func(float64) float64) ([]float64, []float64) {
	out := 0
	for i, v := range values {
		v = f(v)
		if out > 0 && values[out-1] == v {
			mult[out-1] += mult[i]
			continue
		}
		values[out], mult[out] = v, mult[i]
		out++
	}
	return values[:out], mult[:out]
}

// kthLargest returns the run of a tally that holds its k-th largest member
// (1 <= k <= the tally's total) and how many of that run's members are
// among the k largest.
func kthLargest(mult []float64, k int) (run int, inTop float64) {
	left := float64(k)
	run = len(mult) - 1
	for mult[run] < left {
		left -= mult[run]
		run--
	}
	return run, left
}

// Hill returns the Hill estimator of the Pareto tail index from the k
// largest values of sizes: the reciprocal mean log-excess over the k-th
// order statistic. Larger k lowers variance but admits bias from the
// non-tail body; k of a few percent of the sample is customary. The
// estimator is scale-invariant, so it applies to sampled counts and
// rescaled counts alike — thinning preserves the tail exponent. Sizes
// must be positive and finite.
func Hill(sizes []float64, k int) (float64, error) {
	values, mult := dist.Tally(sizes)
	return hill(values, mult, len(sizes), k)
}

// hill is Hill on the tally (values, mult) of n sizes. It walks down from
// the top run to the threshold, then adds each run's log-excess once per
// member in ascending order — the sum over the sorted top k.
func hill(values, mult []float64, n, k int) (float64, error) {
	if k < 2 || k >= n {
		return 0, fmt.Errorf("invert: Hill estimator needs 2 <= k < n, got k=%d n=%d", k, n)
	}
	if lo, hi := values[0], values[len(values)-1]; !(lo > 0) || math.IsInf(hi, 1) {
		return 0, fmt.Errorf("invert: Hill estimator needs positive finite sizes, got range [%g, %g]", lo, hi)
	}
	run, _ := kthLargest(mult, k)
	threshold := values[run]
	var sum float64
	for i := run + 1; i < len(values); i++ {
		excess := math.Log(values[i] / threshold)
		for range int(mult[i]) {
			sum += excess
		}
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
// (dist.Decompose): the atoms of a step law — the Discrete EM returns, a
// rescaled sample's — are summed exactly, and each smooth leaf is
// integrated in its own quantile space, E[(1-p)^S] =
// ∫_0^1 exp(S(u)·log(1-p)) du, where it has no jumps.
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
// 1/p and the scaled sample's law is the estimate. It cannot see flows
// sampling missed, so its distribution has no mass below 1/p and
// FlowCount is the observed count.
type Naive struct{}

// Name implements Estimator.
func (Naive) Name() string { return "naive" }

// Invert implements Estimator.
func (Naive) Invert(counts []float64, p float64) (Estimate, error) {
	values, mult := dist.Tally(counts)
	if err := validate(values, p); err != nil {
		return Estimate{}, err
	}
	values, mult = mergeRuns(values, mult, func(v float64) float64 { return v / p })
	d := dist.NewDiscrete(values, mult)
	est := Estimate{
		Dist:      d,
		Mean:      d.Mean(),
		FlowCount: float64(len(counts)),
		Method:    "naive",
	}
	// Hill is scale-invariant, so the rescaled sample carries the sampled
	// tail exponent unchanged.
	if idx, err := hill(values, mult, len(counts), hillDefaultK(len(counts))); err == nil {
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
	values, mult := dist.Tally(counts)
	if err := validate(values, p); err != nil {
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
	alpha, err := hill(values, mult, n, k)
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
	// The run holding the k-th largest count is the threshold; its members
	// outside the top k stay in the body (a zero weight drops the atom).
	values, mult = mergeRuns(values, mult, func(v float64) float64 { return v / p })
	run, inTop := kthLargest(mult, k)
	threshold := values[run]
	mult[run] -= inTop
	w := float64(k) / float64(n)
	spliced, err := dist.NewMixture(
		dist.Component{Weight: 1 - w, Dist: dist.NewDiscrete(values[:run+1], mult[:run+1])},
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
	values, mult := dist.Tally(counts)
	if err := validate(values, p); err != nil {
		return Estimate{}, err
	}
	beta, err := hill(values, mult, len(counts), hillDefaultK(len(counts)))
	if err != nil {
		return Estimate{}, err
	}
	if beta <= 1.05 {
		beta = 1.05
	}
	var packets float64
	for i, v := range values {
		packets += v * mult[i]
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
// sampled flows S (>= 1 sampled packet), the total sampled packets P, and
// the rate, it returns the original flow count N and mean flow size
// m = max(P/(pN), 1) that solve N = S/(1 − miss(m)), miss being the
// missed-flow probability of a Pareto law with mean m and the given tail
// index.
//
// The equation is solved as one bracketed root in ln N. At N = S the
// right-hand side is larger (some flows are missed); from N = P/p up the
// mean is clamped to 1, the right-hand side is the constant S/(1 − miss₁),
// and N = max(P/p, S/(1 − miss₁)) has passed it. Iterating the map is no
// substitute: it contracts by a factor that tends to 1 as p falls, since
// N(1 − miss) tends to the constant P.
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
	total := float64(sampledPackets) / p
	mean := func(n float64) float64 { return math.Max(total/n, 1) }
	// logRHS is ln(S/(1 − miss)) at the mean n flows would have.
	logS := math.Log(float64(sampledFlows))
	logRHS := func(n float64) float64 {
		return logS - math.Log1p(-MissProbability(dist.ParetoWithMean(mean(n), beta), p))
	}
	logRHS1 := logRHS(total)
	if !(logRHS1 < math.Inf(1)) {
		return 0, 0, fmt.Errorf("invert: sampling rate %g too low to invert", p)
	}
	f := func(lnN float64) float64 { return lnN - logRHS(math.Exp(lnN)) }
	// At the upper end the mean is clamped to 1, so f there is known
	// without another miss probability.
	hi := math.Max(math.Log(total), logRHS1)
	lnN, err := numeric.BrentBracket(f, logS, f(logS), hi, hi-logRHS1, 1e-7)
	if err != nil {
		return 0, 0, fmt.Errorf("invert: population fixed point: %w", err)
	}
	nEst = math.Exp(lnN)
	return nEst, mean(nEst), nil
}
