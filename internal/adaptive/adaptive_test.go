package adaptive

import (
	"errors"
	"math"
	"strings"
	"testing"

	"flowrank/internal/core"
	"flowrank/internal/dist"
	"flowrank/internal/invert"
	"flowrank/internal/randx"
)

func TestHillRecoversParetoIndex(t *testing.T) {
	g := randx.New(1)
	for _, beta := range []float64{1.2, 1.5, 2.5} {
		d := dist.Pareto{Scale: 1, Shape: beta}
		sizes := make([]float64, 50000)
		for i := range sizes {
			sizes[i] = d.Rand(g)
		}
		got, err := Hill(sizes, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-beta) > 0.15*beta {
			t.Errorf("Hill estimate %g, want %g", got, beta)
		}
	}
}

func TestHillErrors(t *testing.T) {
	if _, err := Hill([]float64{1, 2, 3}, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := Hill([]float64{1, 2, 3}, 3); err == nil {
		t.Error("k=n accepted")
	}
	if _, err := Hill([]float64{5, 5, 5, 5, 5}, 3); err == nil {
		t.Error("degenerate tail accepted")
	}
}

func TestMissProbability(t *testing.T) {
	d := dist.ParetoWithMean(9.6, 1.5)
	// Monte-Carlo reference.
	g := randx.New(2)
	for _, p := range []float64{0.01, 0.1, 0.5} {
		const draws = 300000
		missed := 0
		for i := 0; i < draws; i++ {
			s := int(math.Round(d.Rand(g)))
			if s < 1 {
				s = 1
			}
			if g.Binomial(s, p) == 0 {
				missed++
			}
		}
		mc := float64(missed) / draws
		got := MissProbability(d, p)
		// The analytic form uses continuous sizes; allow the
		// discretization gap plus MC noise.
		if math.Abs(got-mc) > 0.03 {
			t.Errorf("p=%g: analytic %g vs MC %g", p, got, mc)
		}
	}
	if MissProbability(d, 1) != 0 || MissProbability(d, 0) != 1 {
		t.Error("edge rates wrong")
	}
}

func TestMissProbabilityAnySizeLaw(t *testing.T) {
	// The population inversion must accept any SizeDist, not just the
	// Pareto it fits: cross-check the quantile-space integral against
	// Monte Carlo for a short-tailed law and a multi-class mixture.
	mix, err := dist.NewMixture(
		dist.Component{Weight: 0.9, Dist: dist.ExponentialWithMean(1, 4)},
		dist.Component{Weight: 0.1, Dist: dist.ParetoWithMean(50, 1.6)},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []dist.SizeDist{
		dist.Lognormal{Min: 1, Mu: 1.2, Sigma: 1.1},
		mix,
	} {
		g := randx.New(8)
		for _, p := range []float64{0.05, 0.3} {
			const draws = 200000
			missed := 0
			for i := 0; i < draws; i++ {
				s := int(math.Round(d.Rand(g)))
				if s < 1 {
					s = 1
				}
				if g.Binomial(s, p) == 0 {
					missed++
				}
			}
			mc := float64(missed) / draws
			got := MissProbability(d, p)
			if math.Abs(got-mc) > 0.03 {
				t.Errorf("%s p=%g: analytic %g vs MC %g", d, p, got, mc)
			}
		}
	}
}

func TestEstimatePopulation(t *testing.T) {
	// Synthesize a sampled bin from a known population and invert it.
	g := randx.New(3)
	d := dist.ParetoWithMean(9.6, 1.5)
	trueN := 100000
	p := 0.05
	sampledFlows := 0
	var sampledPackets int64
	for i := 0; i < trueN; i++ {
		s := int(math.Round(d.Rand(g)))
		if s < 1 {
			s = 1
		}
		got := g.Binomial(s, p)
		if got > 0 {
			sampledFlows++
			sampledPackets += int64(got)
		}
	}
	nEst, meanEst, err := EstimatePopulation(sampledFlows, sampledPackets, p, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nEst-float64(trueN)) > 0.1*float64(trueN) {
		t.Errorf("N estimate %g, true %d", nEst, trueN)
	}
	if math.Abs(meanEst-9.6) > 0.15*9.6 {
		t.Errorf("mean estimate %g, true 9.6", meanEst)
	}
}

func TestEstimatePopulationErrors(t *testing.T) {
	if _, _, err := EstimatePopulation(0, 0, 0.1, 1.5); err == nil {
		t.Error("empty bin accepted")
	}
	if _, _, err := EstimatePopulation(10, 100, 0, 1.5); err == nil {
		t.Error("zero rate accepted")
	}
	if _, _, err := EstimatePopulation(10, 100, 0.1, 0.9); err == nil {
		t.Error("infinite-mean tail accepted")
	}
}

func TestControllerRecommendEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo observation plus model fit takes seconds")
	}
	// Build a sampled observation of a known Sprint-like population, ask
	// for a ranking target, and verify the fitted model meets it at the
	// recommended rate.
	g := randx.New(4)
	d := dist.ParetoWithMean(9.6, 1.5)
	trueN := 200000
	pObs := 0.1
	obs := Observation{Rate: pObs}
	for i := 0; i < trueN; i++ {
		s := int(math.Round(d.Rand(g)))
		if s < 1 {
			s = 1
		}
		got := g.Binomial(s, pObs)
		if got > 0 {
			obs.SampledFlows++
			obs.SampledPackets += int64(got)
			obs.SampledSizes = append(obs.SampledSizes, float64(got))
		}
	}
	ctl := Controller{Target: 1, TopT: 5}
	rate, model, err := ctl.Recommend(obs)
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
	rateDet, _, err := ctlDet.Recommend(obs)
	if err != nil {
		t.Fatal(err)
	}
	if rateDet > rate {
		t.Errorf("detection rate %g above ranking rate %g", rateDet, rate)
	}
}

// TestControllerWithEMInverter: a Controller handed an invert.Estimator
// must run the fitted model on the inverted distribution itself. The EM
// inversion sees the same bin as the default parametric path and must
// recover the population at least as well.
func TestControllerWithEMInverter(t *testing.T) {
	if testing.Short() {
		t.Skip("EM inversion plus model fit takes seconds")
	}
	g := randx.New(4)
	d := dist.ParetoWithMean(9.6, 1.5)
	trueN := 50_000
	pObs := 0.1
	obs := Observation{Rate: pObs}
	for i := 0; i < trueN; i++ {
		s := int(math.Max(1, math.Round(d.Rand(g))))
		if got := g.Binomial(s, pObs); got > 0 {
			obs.SampledFlows++
			obs.SampledPackets += int64(got)
			obs.SampledSizes = append(obs.SampledSizes, float64(got))
		}
	}
	ctl := Controller{Target: 1, TopT: 5, Inverter: invert.EM{}, Workers: 1}
	rate, model, err := ctl.Recommend(obs)
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
	// The default parametric controller on the same observation: both
	// recommendations must be in the same regime (the EM path is the same
	// controller with a richer population estimate, not a different
	// policy).
	rateParam, _, err := Controller{Target: 1, TopT: 5, Workers: 1}.Recommend(obs)
	if err != nil {
		t.Fatal(err)
	}
	if rate > 10*rateParam || rateParam > 10*rate {
		t.Errorf("EM rate %g and parametric rate %g disagree by over 10x", rate, rateParam)
	}
}

// TestControllerInverterNeedsAllSizes: a custom inverter needs every
// sampled flow's count; a partial SampledSizes must be rejected rather
// than silently inverting a truncated sample.
func TestControllerInverterNeedsAllSizes(t *testing.T) {
	obs := Observation{Rate: 0.1, SampledFlows: 100, SampledPackets: 1000,
		SampledSizes: make([]float64, 40)}
	for i := range obs.SampledSizes {
		obs.SampledSizes[i] = float64(i%7 + 1)
	}
	_, _, err := Controller{Target: 1, TopT: 5, Inverter: invert.Naive{}}.Recommend(obs)
	if err == nil || !strings.Contains(err.Error(), "every sampled flow") {
		t.Fatalf("partial sizes accepted with custom inverter: %v", err)
	}
}

func TestControllerValidation(t *testing.T) {
	obs := Observation{Rate: 0.1, SampledFlows: 100, SampledPackets: 1000,
		SampledSizes: make([]float64, 100)}
	for i := range obs.SampledSizes {
		obs.SampledSizes[i] = float64(i + 1)
	}
	if _, _, err := (Controller{Target: 0, TopT: 5}).Recommend(obs); err == nil {
		t.Error("zero target accepted")
	}
	if _, _, err := (Controller{Target: 1, TopT: 0}).Recommend(obs); err == nil {
		t.Error("zero top-t accepted")
	}
}

// TestRecommendDegenerateObservations is the clamp/typed-error table test:
// degenerate bins (no sampled flows, no sampled packets, absurd rates,
// inverted clamp bounds) must either return ErrEmptyObservation / a
// configuration error, or a recommendation strictly inside (0, 1] — never
// a rate a sampler cannot run at.
func TestRecommendDegenerateObservations(t *testing.T) {
	sizes := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i%13 + 1)
		}
		return s
	}
	cases := []struct {
		name    string
		ctl     Controller
		obs     Observation
		isEmpty bool // want errors.Is(err, ErrEmptyObservation)
		wantErr bool // want some error
	}{
		{
			name:    "no sampled flows",
			ctl:     Controller{Target: 1, TopT: 5},
			obs:     Observation{Rate: 0.1},
			isEmpty: true,
		},
		{
			name:    "flows but zero packets",
			ctl:     Controller{Target: 1, TopT: 5},
			obs:     Observation{Rate: 0.1, SampledFlows: 40, SampledSizes: sizes(40)},
			isEmpty: true,
		},
		{
			name:    "negative packets",
			ctl:     Controller{Target: 1, TopT: 5},
			obs:     Observation{Rate: 0.1, SampledFlows: 40, SampledPackets: -3, SampledSizes: sizes(40)},
			isEmpty: true,
		},
		{
			name:    "zero observation rate",
			ctl:     Controller{Target: 1, TopT: 5},
			obs:     Observation{Rate: 0, SampledFlows: 100, SampledPackets: 500, SampledSizes: sizes(100)},
			wantErr: true,
		},
		{
			name:    "observation rate above 1",
			ctl:     Controller{Target: 1, TopT: 5},
			obs:     Observation{Rate: 1.5, SampledFlows: 100, SampledPackets: 500, SampledSizes: sizes(100)},
			wantErr: true,
		},
		{
			name:    "MinRate above MaxRate",
			ctl:     Controller{Target: 1, TopT: 5, MinRate: 0.5, MaxRate: 0.01},
			obs:     Observation{Rate: 0.1, SampledFlows: 100, SampledPackets: 500, SampledSizes: sizes(100)},
			wantErr: true,
		},
		{
			name: "MinRate above 1 rejected, not clamped outside (0,1]",
			ctl:  Controller{Target: 1, TopT: 5, MinRate: 2},
			obs:  Observation{Rate: 0.1, SampledFlows: 100, SampledPackets: 500, SampledSizes: sizes(100)},
			// min=2 > max=1 is a configuration error; the old code would
			// have recommended p=2.
			wantErr: true,
		},
		{
			name: "tiny bin, loose target",
			ctl:  Controller{Target: 1e9, TopT: 2, Workers: 1},
			obs:  Observation{Rate: 0.1, SampledFlows: 30, SampledPackets: 90, SampledSizes: sizes(30)},
		},
		{
			name: "tiny bin, impossible target",
			ctl:  Controller{Target: 1e-12, TopT: 2, Workers: 1},
			obs:  Observation{Rate: 0.1, SampledFlows: 30, SampledPackets: 90, SampledSizes: sizes(30)},
		},
	}
	for _, c := range cases {
		rate, _, err := c.ctl.Recommend(c.obs)
		switch {
		case c.isEmpty:
			if !errors.Is(err, ErrEmptyObservation) {
				t.Errorf("%s: err = %v, want ErrEmptyObservation", c.name, err)
			}
		case c.wantErr:
			if err == nil {
				t.Errorf("%s: degenerate observation accepted, rate %g", c.name, rate)
			}
		default:
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			} else if !(rate > 0 && rate <= 1) {
				t.Errorf("%s: recommended rate %g outside (0, 1]", c.name, rate)
			}
		}
	}
}

// TestRecommendQuietBins is the regression table for the Hill-k floor:
// the old code floored k at 10, so any bin with <= 10 sampled flows hit
// invert.Hill's "k < n" precondition and surfaced a hard controller error.
// A merely quiet bin (0, 1 or 2 sampled flows, or a degenerate tail) must
// map to ErrEmptyObservation — the closed loops keep their rate — while
// 5- and 11-flow bins must produce a recommendation.
func TestRecommendQuietBins(t *testing.T) {
	mk := func(sizes ...float64) Observation {
		var pkts int64
		for _, s := range sizes {
			pkts += int64(s)
		}
		return Observation{Rate: 0.1, SampledFlows: len(sizes), SampledPackets: pkts, SampledSizes: sizes}
	}
	cases := []struct {
		name    string
		obs     Observation
		isEmpty bool
	}{
		{"0 flows", mk(), true},
		{"1 flow", mk(7), true},
		{"2 flows", mk(3, 9), true},
		{"5 flows", mk(1, 2, 3, 4, 8), false},
		{"11 flows", mk(1, 1, 2, 2, 3, 3, 4, 5, 6, 8, 16), false},
		{"degenerate tail", mk(5, 5, 5, 5, 5), true},
	}
	ctl := Controller{Target: 1, TopT: 2, Workers: 1}
	for _, c := range cases {
		rate, _, err := ctl.Recommend(c.obs)
		if c.isEmpty {
			if !errors.Is(err, ErrEmptyObservation) {
				t.Errorf("%s: err = %v, want ErrEmptyObservation", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: quiet-but-usable bin failed: %v", c.name, err)
			continue
		}
		if !(rate > 0 && rate <= 1) {
			t.Errorf("%s: recommended rate %g outside (0, 1]", c.name, rate)
		}
	}
}

// TestRecommendEstimateMatchesRecommend: feeding the estimate back through
// RecommendEstimate must reproduce Recommend exactly — the closed loop
// (flowtop -adapt) re-uses the per-bin inversion instead of re-running it.
func TestRecommendEstimateMatchesRecommend(t *testing.T) {
	if testing.Short() {
		t.Skip("full Recommend search takes tens of seconds")
	}
	g := randx.New(77)
	d := dist.ParetoWithMean(9.6, 1.5)
	obs := Observation{Rate: 0.1}
	for i := 0; i < 20_000; i++ {
		s := int(math.Max(1, math.Round(d.Rand(g))))
		if k := g.Binomial(s, obs.Rate); k > 0 {
			obs.SampledFlows++
			obs.SampledPackets += int64(k)
			obs.SampledSizes = append(obs.SampledSizes, float64(k))
		}
	}
	ctl := Controller{Target: 1, TopT: 5, Workers: 1}
	want, wantModel, err := ctl.Recommend(obs)
	if err != nil {
		t.Fatal(err)
	}
	est, err := invert.Parametric{}.Invert(obs.SampledSizes, obs.Rate)
	if err != nil {
		t.Fatal(err)
	}
	got, gotModel, err := ctl.RecommendEstimate(est)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || gotModel.N != wantModel.N {
		t.Errorf("RecommendEstimate = (%g, N=%d), Recommend = (%g, N=%d)",
			got, gotModel.N, want, wantModel.N)
	}
	if _, _, err := ctl.RecommendEstimate(invert.Estimate{FlowCount: 100}); err == nil {
		t.Error("estimate without a distribution accepted")
	}
}

// nanDist is a size law whose quantile function is broken: every model
// metric over it is NaN.
type nanDist struct{ dist.Pareto }

func (nanDist) QuantileCCDF(float64) float64 { return math.NaN() }

// TestRecommendEstimateSolverErrors: only "even MaxRate cannot reach the
// target" is answered with MaxRate. Any other solver failure is an error —
// the old code turned every one of them into a confident "sample
// everything".
func TestRecommendEstimateSolverErrors(t *testing.T) {
	est := invert.Estimate{Dist: dist.ParetoWithMean(9.6, 1.5), FlowCount: 2000}
	ctl := Controller{Target: 1e-12, TopT: 2, MaxRate: 0.5, Workers: 1}
	rate, model, err := ctl.RecommendEstimate(est)
	if err != nil || rate != 0.5 {
		t.Errorf("unreachable target: (%g, %v), want MaxRate 0.5", rate, err)
	}
	if _, err := model.RequiredRateIn(ctl.Target, false, 1e-4, 0.5); !errors.Is(err, core.ErrTargetUnreachable) {
		t.Errorf("the fitted model's own solve: err = %v, want ErrTargetUnreachable", err)
	}

	est.Dist = nanDist{dist.ParetoWithMean(9.6, 1.5)}
	ctl = Controller{Target: 1, TopT: 2, Workers: 1}
	rate, _, err = ctl.RecommendEstimate(est)
	if err == nil || errors.Is(err, core.ErrTargetUnreachable) {
		t.Errorf("NaN metric: (%g, %v), want a solver error and no rate", rate, err)
	}
}

// TestRecommendEstimateClampEquivalence: solving inside the clamp interval
// returns what solving on [1e-6, 1) and clamping afterwards returned. The
// reference rates are the previous implementation's output on the same
// estimates (Pareto mean 9.6, β 1.5; target 1; MinRate 0.05, MaxRate 0.5):
// clamped answers must match exactly, the interior ones to the solver's
// tolerance.
func TestRecommendEstimateClampEquivalence(t *testing.T) {
	cases := []struct {
		name      string
		flows     float64
		topT      int
		detection bool
		want      float64
		exact     bool
	}{
		{"root 0.3% below MinRate", 3_500_000, 5, true, 0.05, true},
		{"root inside, upper half", 3_500_000, 10, false, 0.26454575815728126, false},
		{"root inside, near MinRate", 200_000, 5, false, 0.097644761109387745, false},
		{"root 51% above MaxRate", 700_000, 10, false, 0.5, true},
	}
	for _, c := range cases {
		ctl := Controller{Target: 1, TopT: c.topT, Detection: c.detection, MinRate: 0.05, MaxRate: 0.5}
		est := invert.Estimate{Dist: dist.ParetoWithMean(9.6, 1.5), FlowCount: c.flows}
		got, _, err := ctl.RecommendEstimate(est)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if (c.exact && got != c.want) || math.Abs(got-c.want) > 1e-5*c.want {
			t.Errorf("%s: recommended %.17g, solve-then-clamp gave %.17g", c.name, got, c.want)
		}
	}
}
