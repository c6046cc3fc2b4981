package adaptive

import (
	"errors"
	"math"
	"testing"

	"flowrank/internal/core"
	"flowrank/internal/dist"
	"flowrank/internal/invert"
	"flowrank/internal/randx"
)

// sampledBin draws n flows from the Sprint-like Pareto(9.6, 1.5) law and
// returns the per-flow counts a monitor sampling at rate p observes.
func sampledBin(seed uint64, n int, p float64) []float64 {
	g := randx.New(seed)
	d := dist.ParetoWithMean(9.6, 1.5)
	var counts []float64
	for i := 0; i < n; i++ {
		s := int(math.Max(1, math.Round(d.Rand(g))))
		if got := g.Binomial(s, p); got > 0 {
			counts = append(counts, float64(got))
		}
	}
	return counts
}

// invertBin runs est over the counts, failing the test on an error.
func invertBin(t *testing.T, est invert.Estimator, counts []float64, p float64) invert.Estimate {
	t.Helper()
	e, err := est.Invert(counts, p)
	if err != nil {
		t.Fatalf("%s inversion: %v", est.Name(), err)
	}
	return e
}

func TestControllerRecommendEndToEnd(t *testing.T) {
	// Invert a sampled observation of a known Sprint-like population, ask
	// for a ranking target, and verify the fitted model meets it at the
	// recommended rate.
	const trueN, pObs = 200000, 0.1
	est := invertBin(t, invert.Parametric{}, sampledBin(4, trueN, pObs), pObs)
	ctl := Controller{Target: 1, TopT: 5}
	rate, model, err := ctl.RecommendEstimate(est)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 || rate > 1 {
		t.Fatalf("recommended rate %g", rate)
	}
	if model.N < trueN/2 || model.N > trueN*2 {
		t.Errorf("fitted N = %d, true %d", model.N, trueN)
	}
	// The recommendation must satisfy its own model.
	if m := model.RankingMetric(rate); m > 1.3 {
		t.Errorf("metric at recommended rate = %g, want <= ~1", m)
	}
	// Detection should need a lower rate than ranking.
	ctlDet := Controller{Target: 1, TopT: 5, Detection: true}
	rateDet, _, err := ctlDet.RecommendEstimate(est)
	if err != nil {
		t.Fatal(err)
	}
	if rateDet > rate {
		t.Errorf("detection rate %g above ranking rate %g", rateDet, rate)
	}
}

// TestControllerWithEMInverter: handed an EM estimate, the controller must
// run the fitted model on the inverted distribution itself. The EM
// inversion sees the same bin as the parametric one and must recover the
// population at least as well.
func TestControllerWithEMInverter(t *testing.T) {
	const trueN, pObs = 50_000, 0.1
	counts := sampledBin(4, trueN, pObs)
	ctl := Controller{Target: 1, TopT: 5, Workers: 1}
	rate, model, err := ctl.RecommendEstimate(invertBin(t, invert.EM{}, counts, pObs))
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 || rate > 1 {
		t.Fatalf("recommended rate %g", rate)
	}
	if model.N < trueN*85/100 || model.N > trueN*115/100 {
		t.Errorf("EM-fitted N = %d, true %d (want within 15%%)", model.N, trueN)
	}
	if _, ok := model.Dist.(*dist.Discrete); !ok {
		t.Errorf("fitted model dist %T, want the EM *dist.Discrete", model.Dist)
	}
	if m := model.RankingMetric(rate); m > 1.3 {
		t.Errorf("metric at recommended rate = %g, want <= ~1", m)
	}
	// The parametric inversion of the same bin: both recommendations must
	// be in the same regime (the EM path is the same controller with a
	// richer population estimate, not a different policy).
	rateParam, _, err := ctl.RecommendEstimate(invertBin(t, invert.Parametric{}, counts, pObs))
	if err != nil {
		t.Fatal(err)
	}
	if rate > 10*rateParam || rateParam > 10*rate {
		t.Errorf("EM rate %g and parametric rate %g disagree by over 10x", rate, rateParam)
	}
}

func TestControllerValidation(t *testing.T) {
	est := invert.Estimate{Dist: dist.ParetoWithMean(9.6, 1.5), FlowCount: 1000}
	if _, _, err := (Controller{Target: 0, TopT: 5}).RecommendEstimate(est); err == nil {
		t.Error("zero target accepted")
	}
	if _, _, err := (Controller{Target: 1, TopT: 0}).RecommendEstimate(est); err == nil {
		t.Error("zero top-t accepted")
	}
}

// TestRecommendDegenerateObservations is the clamp table test: a
// degenerate estimate (no distribution) is an error, and tiny bins or
// fewer estimated flows than the top list still get a recommendation
// strictly inside (0, 1] — never a rate a sampler cannot run at.
func TestRecommendDegenerateObservations(t *testing.T) {
	sizes := make([]float64, 30)
	for i := range sizes {
		sizes[i] = float64(i%13 + 1)
	}
	tiny := invertBin(t, invert.Parametric{}, sizes, 0.1)
	cases := []struct {
		name    string
		ctl     Controller
		est     invert.Estimate
		wantErr bool
	}{
		{
			name:    "no size distribution",
			ctl:     Controller{Target: 1, TopT: 5},
			est:     invert.Estimate{FlowCount: 100},
			wantErr: true,
		},
		{
			name: "tiny bin, loose target",
			ctl:  Controller{Target: 1e9, TopT: 2, Workers: 1},
			est:  tiny,
		},
		{
			name: "tiny bin, impossible target",
			ctl:  Controller{Target: 1e-12, TopT: 2, Workers: 1},
			est:  tiny,
		},
		{
			name: "fewer flows than the top list",
			ctl:  Controller{Target: 1, TopT: 5, Workers: 1},
			est:  invert.Estimate{Dist: dist.ParetoWithMean(9.6, 1.5), FlowCount: 2},
		},
	}
	for _, c := range cases {
		rate, _, err := c.ctl.RecommendEstimate(c.est)
		switch {
		case c.wantErr:
			if err == nil {
				t.Errorf("%s: degenerate estimate accepted, rate %g", c.name, rate)
			}
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case !(rate > 0 && rate <= 1):
			t.Errorf("%s: recommended rate %g outside (0, 1]", c.name, rate)
		}
	}
}

// nanDist is a size law whose quantile function is broken: every model
// metric over it is NaN.
type nanDist struct{ dist.Pareto }

func (nanDist) QuantileCCDF(float64) float64 { return math.NaN() }

// TestRecommendEstimateSolverErrors: only "even p = 1 cannot reach the
// target" is answered with 1. Any other solver failure is an error — the
// old code turned every one of them into a confident "sample everything".
func TestRecommendEstimateSolverErrors(t *testing.T) {
	// The metric is still about 6e-6 at the solve's ceiling p = 1 − 1e-9,
	// so no rate meets 1e-12.
	est := invert.Estimate{Dist: dist.ParetoWithMean(9.6, 1.5), FlowCount: 2000}
	ctl := Controller{Target: 1e-12, TopT: 2, Workers: 1}
	rate, model, err := ctl.RecommendEstimate(est)
	if err != nil || rate != 1 {
		t.Errorf("unreachable target: (%g, %v), want the ceiling 1", rate, err)
	}
	if _, err := model.RequiredRateIn(ctl.Target, false, 1e-4, 1); !errors.Is(err, core.ErrTargetUnreachable) {
		t.Errorf("the fitted model's own solve: err = %v, want ErrTargetUnreachable", err)
	}

	est.Dist = nanDist{dist.ParetoWithMean(9.6, 1.5)}
	ctl = Controller{Target: 1, TopT: 2, Workers: 1}
	rate, _, err = ctl.RecommendEstimate(est)
	if err == nil || errors.Is(err, core.ErrTargetUnreachable) {
		t.Errorf("NaN metric: (%g, %v), want a solver error and no rate", rate, err)
	}
}

// paretoSizes draws n unsampled Pareto(1, shape) flow sizes.
func paretoSizes(seed uint64, n int, shape float64) []float64 {
	g := randx.New(seed)
	d := dist.Pareto{Scale: 1, Shape: shape}
	sizes := make([]float64, n)
	for i := range sizes {
		sizes[i] = d.Rand(g)
	}
	return sizes
}

// TestHillRecoversParetoIndex: the tail index of the population the
// controller fits comes from the parametric inversion's Hill fit, which must
// recover a Pareto population's index.
func TestHillRecoversParetoIndex(t *testing.T) {
	for _, beta := range []float64{1.2, 1.5, 2.5} {
		est := invertBin(t, invert.Parametric{}, paretoSizes(1, 50000, beta), 1)
		if math.Abs(est.TailIndex-beta) > 0.15*beta {
			t.Errorf("parametric tail index %g, want %g", est.TailIndex, beta)
		}
	}
}

// TestHillErrors: a bin whose tail the Hill fit cannot estimate — too few
// flows for its order statistics, or a tail of equal counts — is an
// inversion error and never reaches the controller as an estimate.
func TestHillErrors(t *testing.T) {
	flat := make([]float64, 50)
	for i := range flat {
		flat[i] = 5
	}
	for name, counts := range map[string][]float64{
		"fewer flows than the tail fit": {1, 2, 3},
		"degenerate tail":               flat,
	} {
		if est, err := (invert.Parametric{}).Invert(counts, 0.1); err == nil {
			t.Errorf("%s: inverted to %v", name, est)
		}
	}
}

// TestEstimatePopulationErrors: the parametric fixed point rejects an empty
// bin and a rate outside (0, 1], and an infinite-mean Hill fit is clamped to
// 1.05 rather than rejected, so the controller still gets a finite-mean
// population and a rate inside (0, 1].
func TestEstimatePopulationErrors(t *testing.T) {
	if _, err := (invert.Parametric{}).Invert(nil, 0.1); err == nil {
		t.Error("empty bin accepted")
	}
	if _, err := (invert.Parametric{}).Invert([]float64{1, 2, 3}, 0); err == nil {
		t.Error("zero rate accepted")
	}
	est := invertBin(t, invert.Parametric{}, paretoSizes(2, 2000, 0.8), 1)
	if est.TailIndex != 1.05 || math.IsInf(est.Mean, 0) || math.IsNaN(est.Mean) {
		t.Errorf("infinite-mean tail: index %g, mean %g; want the 1.05 clamp and a finite mean",
			est.TailIndex, est.Mean)
	}
	rate, _, err := (Controller{Target: 1, TopT: 5, Workers: 1}).RecommendEstimate(est)
	if err != nil || !(rate > 0 && rate <= 1) {
		t.Errorf("infinite-mean tail: (%g, %v), want a rate in (0, 1]", rate, err)
	}
}
