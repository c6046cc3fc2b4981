// Package adaptive implements the paper's third future-work direction
// (§9): setting the sampling rate from the observed traffic. A Controller
// watches one measurement bin of sampled traffic, inverts the sampling
// through an internal/invert estimator to recover the flow population
// (total flows, size distribution), and asks the analytical model for the
// cheapest rate that keeps the chosen swapped-pairs metric under a
// target.
package adaptive

import (
	"errors"
	"fmt"

	"flowrank/internal/core"
	"flowrank/internal/dist"
	"flowrank/internal/invert"
)

// ErrEmptyObservation is returned by Recommend when the observed bin holds
// nothing to invert: no sampled flows or packets, or too few sampled sizes
// to fit any tail (fewer than 3, or a fully degenerate upper tail). Callers
// running a closed loop (flowtop -adapt, flowrankd) match it with errors.Is
// and keep the current rate rather than treating the bin as a controller
// failure.
var ErrEmptyObservation = errors.New("adaptive: empty observation (no sampled flows or packets)")

// Hill returns the Hill estimator of the Pareto tail index from the k
// largest values of sizes. It is invert.Hill, re-exported where the
// controller's callers historically found it.
func Hill(sizes []float64, k int) (float64, error) {
	return invert.Hill(sizes, k)
}

// MissProbability returns the probability that a flow drawn from d leaves
// no sampled packet at rate p: E[(1-p)^S] (invert.MissProbability).
func MissProbability(d dist.SizeDist, p float64) float64 {
	return invert.MissProbability(d, p)
}

// EstimatePopulation inverts one sampled bin parametrically
// (invert.EstimatePopulation): given the number of sampled flows, the
// total sampled packets, and the rate, it estimates the true flow count
// and true mean flow size by fixed-point iteration on a Pareto model with
// the given tail index.
func EstimatePopulation(sampledFlows int, sampledPackets int64, p, beta float64) (nEst float64, meanEst float64, err error) {
	return invert.EstimatePopulation(sampledFlows, sampledPackets, p, beta)
}

// Controller recommends sampling rates.
type Controller struct {
	// Target is the acceptable swapped-pairs metric (the paper deems a
	// bin acceptable below 1).
	Target float64
	// TopT is the top-list length of interest.
	TopT int
	// Detection selects the §7 metric instead of the §5 ranking metric.
	Detection bool
	// MinRate and MaxRate clamp recommendations (defaults 1e-4 and 1).
	MinRate, MaxRate float64
	// Workers bounds the fitted model's evaluation parallelism
	// (core.Model.Workers: 0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Inverter selects the population inversion. Nil uses the parametric
	// Pareto inversion (invert.Parametric) on the observation's scalar
	// counts — the controller's original behavior. A non-nil estimator
	// (for example invert.EM{}) requires Observation.SampledSizes to hold
	// every sampled flow's count, and the fitted model then runs on the
	// inverted distribution itself rather than a Pareto fit.
	Inverter invert.Estimator
}

// Observation summarizes one sampled measurement bin.
type Observation struct {
	// Rate is the sampling rate the bin was collected at.
	Rate float64
	// SampledFlows is the number of flows with >= 1 sampled packet.
	SampledFlows int
	// SampledPackets is the total number of sampled packets.
	SampledPackets int64
	// SampledSizes are the per-flow sampled packet counts. The default
	// parametric inversion uses them only for the tail estimate (the
	// largest few hundred matter); a custom Inverter needs all of them.
	SampledSizes []float64
}

// rateBounds resolves and validates the controller's clamp interval. The
// resolved bounds always satisfy 0 < min <= max <= 1, so every successful
// recommendation lies inside (0, 1] no matter how degenerate the
// observation was.
func (c Controller) rateBounds() (minRate, maxRate float64, err error) {
	minRate = c.MinRate
	if minRate <= 0 {
		minRate = 1e-4
	}
	maxRate = c.MaxRate
	if maxRate <= 0 || maxRate > 1 {
		maxRate = 1
	}
	if minRate > maxRate {
		return 0, 0, fmt.Errorf("adaptive: MinRate %g above MaxRate %g", minRate, maxRate)
	}
	return minRate, maxRate, nil
}

// validate checks the controller's target configuration.
func (c Controller) validate() error {
	if c.TopT < 1 {
		return fmt.Errorf("adaptive: top-t %d must be >= 1", c.TopT)
	}
	if c.Target <= 0 {
		return fmt.Errorf("adaptive: target %g must be positive", c.Target)
	}
	return nil
}

// Recommend estimates the population from the observation and returns the
// cheapest rate whose predicted metric meets the target, together with
// the fitted model. The rate is always inside [MinRate, MaxRate] ⊆ (0, 1];
// an observed bin with no sampled flows or packets returns
// ErrEmptyObservation.
func (c Controller) Recommend(obs Observation) (float64, core.Model, error) {
	if err := c.validate(); err != nil {
		return 0, core.Model{}, err
	}
	if _, _, err := c.rateBounds(); err != nil {
		return 0, core.Model{}, err
	}
	if obs.SampledFlows <= 0 || obs.SampledPackets <= 0 {
		return 0, core.Model{}, fmt.Errorf("%w: %d flows, %d packets",
			ErrEmptyObservation, obs.SampledFlows, obs.SampledPackets)
	}
	if !(obs.Rate > 0 && obs.Rate <= 1) {
		return 0, core.Model{}, fmt.Errorf("adaptive: observation rate %g outside (0, 1]", obs.Rate)
	}
	est, err := c.estimate(obs)
	if err != nil {
		return 0, core.Model{}, err
	}
	return c.RecommendEstimate(est)
}

// RecommendEstimate is the second half of Recommend for callers that
// already hold an inverted population estimate — the streaming monitor's
// per-bin inversion summary carries one, so the closed loop
// (flowtop -adapt) does not invert the same bin twice. It fits the model
// to the estimate and returns the cheapest rate in [MinRate, MaxRate]
// meeting the target: MinRate when the target is already met there,
// MaxRate when even MaxRate cannot reach it. Any other solver failure (an
// estimate the model rejects, say) is returned as an error, never turned
// into a rate.
func (c Controller) RecommendEstimate(est invert.Estimate) (float64, core.Model, error) {
	if err := c.validate(); err != nil {
		return 0, core.Model{}, err
	}
	minRate, maxRate, err := c.rateBounds()
	if err != nil {
		return 0, core.Model{}, err
	}
	if est.Dist == nil {
		return 0, core.Model{}, errors.New("adaptive: estimate carries no size distribution")
	}
	model := core.Model{
		N:            int(est.FlowCount + 0.5),
		T:            c.TopT,
		Dist:         est.Dist,
		PoissonTails: true,
		Kernel:       core.KernelHybrid,
		Workers:      c.Workers,
	}
	if model.N <= c.TopT {
		model.N = c.TopT + 1
	}
	// The clamp interval is the solve interval: a root outside it would be
	// clamped away, so no probe is spent looking for it there.
	rate, err := model.RequiredRateIn(c.Target, c.Detection, minRate, maxRate)
	if errors.Is(err, core.ErrTargetUnreachable) {
		// Even MaxRate cannot reach the target: recommend the ceiling.
		return maxRate, model, nil
	}
	if err != nil {
		return 0, model, fmt.Errorf("adaptive: solving the required rate: %w", err)
	}
	if rate < minRate {
		rate = minRate
	}
	if rate > maxRate {
		rate = maxRate
	}
	return rate, model, nil
}

// estimate runs the configured inversion on the observation.
func (c Controller) estimate(obs Observation) (invert.Estimate, error) {
	if c.Inverter != nil {
		if len(obs.SampledSizes) != obs.SampledFlows {
			return invert.Estimate{}, fmt.Errorf(
				"adaptive: inverter %q needs every sampled flow's count: %d sizes for %d flows",
				c.Inverter.Name(), len(obs.SampledSizes), obs.SampledFlows)
		}
		est, err := c.Inverter.Invert(obs.SampledSizes, obs.Rate)
		if err != nil {
			return invert.Estimate{}, fmt.Errorf("adaptive: inverting observation: %w", err)
		}
		return est, nil
	}
	// Default: tail index from the sampled sizes (sampled counts of Pareto
	// flows keep the tail index — thinning preserves the power-law
	// exponent), then the parametric fixed point on the scalar totals.
	// invert.Hill needs 2 <= k < n, so k is clamped into [2, n-1]; a bin
	// too quiet to fit any tail (fewer than 3 sampled flows, or a fully
	// degenerate upper tail) is an empty observation, not a controller
	// failure — closed loops keep their current rate and move on.
	n := len(obs.SampledSizes)
	k := n / 50
	if k < 10 {
		k = 10
	}
	if k >= n {
		k = n - 1
	}
	if k < 2 {
		return invert.Estimate{}, fmt.Errorf("%w: %d sampled sizes is too few for a tail fit",
			ErrEmptyObservation, n)
	}
	beta, err := invert.Hill(obs.SampledSizes, k)
	if err != nil {
		return invert.Estimate{}, fmt.Errorf("%w: %v", ErrEmptyObservation, err)
	}
	if beta <= 1.05 {
		beta = 1.05 // keep the fitted mean finite
	}
	nEst, meanEst, err := invert.EstimatePopulation(obs.SampledFlows, obs.SampledPackets, obs.Rate, beta)
	if err != nil {
		return invert.Estimate{}, err
	}
	return invert.Estimate{
		Dist:      dist.ParetoWithMean(meanEst, beta),
		Mean:      meanEst,
		TailIndex: beta,
		FlowCount: nEst,
		Method:    "parametric",
	}, nil
}
