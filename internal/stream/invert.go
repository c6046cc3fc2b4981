package stream

import "flowrank/internal/invert"

// InversionCheckpoints are the upper-tail probabilities at which every
// InversionSummary reports the estimated size quantiles: the median, the
// top decile, the top percent, and the top 0.1% — the body-to-tail
// checkpoints a monitor operator reads off a CCDF plot.
var InversionCheckpoints = [4]float64{0.5, 0.1, 0.01, 0.001}

// InversionSummary is the per-bin output of the optional inversion stage:
// the bin's sampled per-flow packet counts run through the configured
// invert.Estimator at the sampler's rate. It obeys the engine's
// determinism contract — bit-identical for any worker count and batch
// size — because the input is the merged multiset of sampled counts
// (estimators are order-invariant) and the quantiles are read at fixed
// checkpoints.
type InversionSummary struct {
	// Method names the estimator ("naive", "tail", "em", "parametric").
	Method string
	// Quantiles are the estimated original size quantiles at the
	// upper-tail probabilities InversionCheckpoints (zero when Err is
	// set).
	Quantiles [4]float64
	// Err carries the estimator's error when the bin could not be
	// inverted (for example too few sampled flows for a tail fit).
	Err string
	// Estimate is the inversion result — mean, tail index, flow count and
	// the estimated size distribution — and what a closed control loop
	// (flowtop -adapt) feeds into adaptive.Controller.RecommendEstimate
	// without inverting the bin a second time. Nil exactly when Err is
	// set.
	Estimate *invert.Estimate
}

// summarizeInversion runs the estimator over the bin's sampled counts,
// which come in the shards' table order: estimators canonicalize their
// input, so the summary depends only on the multiset of counts.
func summarizeInversion(est invert.Estimator, counts []float64, rate float64) *InversionSummary {
	s := &InversionSummary{Method: est.Name()}
	if len(counts) == 0 {
		s.Err = "no sampled flows"
		return s
	}
	e, err := est.Invert(counts, rate)
	if err != nil {
		s.Err = err.Error()
		return s
	}
	s.Estimate = &e
	for i, u := range InversionCheckpoints {
		s.Quantiles[i] = e.Dist.QuantileCCDF(u)
	}
	return s
}
