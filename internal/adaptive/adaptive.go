// Package adaptive implements the paper's third future-work direction
// (§9): setting the sampling rate from the observed traffic. A Controller
// takes one measurement bin's inverted flow population (an invert.Estimate:
// total flows, size distribution) and asks the analytical model for the
// cheapest rate that keeps the chosen swapped-pairs metric under a target.
package adaptive

import (
	"errors"
	"fmt"

	"flowrank/internal/core"
	"flowrank/internal/invert"
)

// The interval every recommendation is clamped to.
const (
	minRate = 1e-4
	maxRate = 1
)

// Controller recommends sampling rates.
type Controller struct {
	// Target is the acceptable swapped-pairs metric (the paper deems a
	// bin acceptable below 1).
	Target float64
	// TopT is the top-list length of interest.
	TopT int
	// Detection selects the §7 metric instead of the §5 ranking metric.
	Detection bool
	// Workers bounds the fitted model's evaluation parallelism
	// (core.Model.Workers: 0 = GOMAXPROCS, 1 = serial).
	Workers int
}

// RecommendEstimate fits the model to one bin's inverted population
// (core.FitModel) and returns the cheapest rate in [1e-4, 1] meeting the
// target, together with the fitted model: 1e-4 when the target is already
// met there, 1 when even p = 1 cannot reach it. Any other solver failure (an
// estimate the model rejects, say) is returned as an error, never turned
// into a rate. The streaming monitor's bin result carries the estimate,
// so the closed loop (flowtop -adapt) does not invert the same bin twice.
func (c Controller) RecommendEstimate(est invert.Estimate) (float64, core.Model, error) {
	if c.TopT < 1 {
		return 0, core.Model{}, fmt.Errorf("adaptive: top-t %d must be >= 1", c.TopT)
	}
	if c.Target <= 0 {
		return 0, core.Model{}, fmt.Errorf("adaptive: target %g must be positive", c.Target)
	}
	if est.Dist == nil {
		return 0, core.Model{}, errors.New("adaptive: estimate carries no size distribution")
	}
	model := core.FitModel(est.FlowCount, est.Dist, c.TopT, c.Workers)
	// The clamp interval is the solve interval: a root outside it would be
	// clamped away, so no probe is spent looking for it there.
	rate, err := model.RequiredRateIn(c.Target, c.Detection, minRate, maxRate)
	if errors.Is(err, core.ErrTargetUnreachable) {
		// Even the ceiling cannot reach the target: recommend it.
		return maxRate, model, nil
	}
	if err != nil {
		return 0, model, fmt.Errorf("adaptive: solving the required rate: %w", err)
	}
	// The solve works in log p; exp(log p) may land an ulp outside.
	return min(max(rate, minRate), maxRate), model, nil
}
