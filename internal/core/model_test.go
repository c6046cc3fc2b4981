package core

import (
	"math"
	"sort"
	"testing"

	"flowrank/internal/dist"
	"flowrank/internal/randx"
)

// sprintModel returns the paper's 5-tuple Sprint calibration: Pareto sizes
// with mean 4.8KB/500B = 9.6 packets and N = 0.7M flows per 5-minute bin.
func sprintModel(n, t int, beta float64) Model {
	return Model{N: n, T: t, Dist: dist.ParetoWithMean(9.6, beta)}
}

func TestModelValidate(t *testing.T) {
	d := dist.ParetoWithMean(9.6, 1.5)
	bad := []Model{
		{N: 1, T: 1, Dist: d},
		{N: 100, T: 0, Dist: d},
		{N: 100, T: 100, Dist: d},
		{N: 100, T: 5, Dist: nil},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := (Model{N: 100, T: 5, Dist: d}).Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestMetricLimits(t *testing.T) {
	m := sprintModel(1000, 5, 1.5)
	if got := m.RankingMetric(1); got != 0 {
		t.Errorf("p=1 ranking metric = %g, want 0", got)
	}
	if got := m.DetectionMetric(1); got != 0 {
		t.Errorf("p=1 detection metric = %g, want 0", got)
	}
	n, tt := 1000.0, 5.0
	if got := m.RankingMetric(0); got != (2*n-tt-1)*tt/2 {
		t.Errorf("p=0 ranking metric = %g, want all pairs %g", got, (2*n-tt-1)*tt/2)
	}
	if got := m.DetectionMetric(0); got != tt*(n-tt) {
		t.Errorf("p=0 detection metric = %g, want %g", got, tt*(n-tt))
	}
}

func TestMetricMonotoneInP(t *testing.T) {
	m := sprintModel(100000, 10, 1.5)
	prevR, prevD := math.Inf(1), math.Inf(1)
	for _, p := range []float64{0.001, 0.01, 0.05, 0.1, 0.3, 0.6, 0.9} {
		r := m.RankingMetric(p)
		d := m.DetectionMetric(p)
		if r > prevR*1.0001 {
			t.Fatalf("ranking metric not decreasing at p=%g: %g > %g", p, r, prevR)
		}
		if d > prevD*1.0001 {
			t.Fatalf("detection metric not decreasing at p=%g: %g > %g", p, d, prevD)
		}
		if d > r*1.0001 {
			t.Fatalf("detection metric %g exceeds ranking metric %g at p=%g", d, r, p)
		}
		prevR, prevD = r, d
	}
}

func TestMetricMonotoneInT(t *testing.T) {
	p := 0.05
	prevR, prevD := -1.0, -1.0
	for _, tt := range []int{1, 2, 5, 10, 25} {
		m := sprintModel(700000, tt, 1.5)
		r := m.RankingMetric(p)
		d := m.DetectionMetric(p)
		if r < prevR {
			t.Fatalf("ranking metric not increasing in t at %d: %g < %g", tt, r, prevR)
		}
		if d < prevD {
			t.Fatalf("detection metric not increasing in t at %d: %g < %g", tt, d, prevD)
		}
		prevR, prevD = r, d
	}
}

func TestMetricImprovesWithN(t *testing.T) {
	// §6.3: more flows means larger top flows, hence better ranking.
	p := 0.01
	prev := math.Inf(1)
	for _, n := range []int{140000, 700000, 3500000} {
		m := sprintModel(n, 10, 1.5)
		r := m.RankingMetric(p)
		if r >= prev {
			t.Fatalf("ranking metric should decrease with N: %g at N=%d after %g", r, n, prev)
		}
		prev = r
	}
}

func TestMetricImprovesWithHeavierTail(t *testing.T) {
	// §6.2: the heavier the tail (smaller beta), the better the ranking.
	p := 0.1
	prev := -1.0
	for _, beta := range []float64{1.2, 1.5, 2.0, 2.5, 3.0} {
		m := sprintModel(700000, 10, beta)
		r := m.RankingMetric(p)
		if r <= prev {
			t.Fatalf("ranking metric should increase with beta: %g at beta=%g after %g", r, beta, prev)
		}
		prev = r
	}
}

func TestRankingEqualsDetectionForT1(t *testing.T) {
	// §7.1: for t = 1 the two problems are identical.
	for _, n := range []int{1000, 50000} {
		m := sprintModel(n, 1, 1.5)
		for _, p := range []float64{0.01, 0.1, 0.5} {
			r := m.RankingMetric(p)
			d := m.DetectionMetric(p)
			if !almostEqual(r, d, 1e-6) {
				t.Errorf("N=%d p=%g: ranking %g != detection %g", n, p, r, d)
			}
		}
	}
}

// TestPoissonTailsMatchExact holds the model, whose top-t weights are the
// Poisson limit, to the reference evaluator over the paper's binomial
// weights.
func TestPoissonTailsMatchExact(t *testing.T) {
	m := Model{N: 100000, T: 10, Dist: dist.ParetoWithMean(9.6, 1.5)}
	for _, p := range []float64{0.01, 0.1} {
		re, rp := refRankingMetric(m, p, binomialWeights), m.RankingMetric(p)
		if !almostEqual(re, rp, 5e-3) {
			t.Errorf("p=%g: exact %g vs poisson %g", p, re, rp)
		}
		de, dp := refDetectionMetric(m, p, binomialWeights), m.DetectionMetric(p)
		if !almostEqual(de, dp, 5e-3) {
			t.Errorf("detection p=%g: exact %g vs poisson %g", p, de, dp)
		}
	}
}

func TestPaperShapeSprint(t *testing.T) {
	// §6.4 and Fig. 4: with N = 0.7M 5-tuple flows and beta = 1.5,
	// ranking the top 10 needs a very high sampling rate while 1% only
	// handles the top few flows.
	m10 := sprintModel(700000, 10, 1.5)
	if r := m10.RankingMetric(0.1); r <= 1 {
		t.Errorf("top-10 ranking at p=10%% gave metric %g, paper needs ~50%%", r)
	}
	if r := m10.RankingMetric(0.9); r >= 1 {
		t.Errorf("top-10 ranking at p=90%% gave metric %g, want < 1", r)
	}
	m1 := sprintModel(700000, 1, 1.5)
	if r := m1.RankingMetric(0.01); r >= 1 {
		t.Errorf("top-1 ranking at p=1%% gave metric %g, paper says the top few work at 1%%", r)
	}
	m25 := sprintModel(700000, 25, 1.5)
	if r := m25.RankingMetric(0.01); r <= 10 {
		t.Errorf("top-25 ranking at p=1%% gave metric %g, should fail badly", r)
	}
}

func TestPaperShapeDetectionGain(t *testing.T) {
	// §7.2: detection needs about an order of magnitude lower rate than
	// ranking.
	m := sprintModel(700000, 10, 1.5)
	pRank, err := m.RequiredRate(1, false)
	if err != nil {
		t.Fatal(err)
	}
	pDet, err := m.RequiredRate(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if pDet >= pRank {
		t.Fatalf("detection rate %g should be below ranking rate %g", pDet, pRank)
	}
	if pRank/pDet < 3 {
		t.Errorf("rate gain ranking/detection = %g, paper reports about an order of magnitude", pRank/pDet)
	}
	if pRank < 0.1 {
		t.Errorf("required ranking rate %g, paper reports above 10%% for top-10", pRank)
	}
}

func TestPaperShapeLargeN(t *testing.T) {
	// §6.3 / Fig. 8: the ranking accuracy improves substantially with N.
	// (The paper's text claims 0.1% suffices at N = 3.5M; direct
	// simulation of 3.5M Pareto flows contradicts that — the metric is
	// ~12 at p = 0.1% — so here we assert the reproducible part: the
	// required rate drops steeply with N. See the kernels figure.)
	big := sprintModel(3500000, 10, 1.5)
	small := sprintModel(140000, 10, 1.5)
	pBig, err := big.RequiredRate(1, false)
	if err != nil {
		t.Fatal(err)
	}
	pSmall, err := small.RequiredRate(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if pSmall/pBig < 2 {
		t.Errorf("required rate should drop steeply with N: N=140K needs %g, N=3.5M needs %g", pSmall, pBig)
	}
	if r := small.RankingMetric(0.1); r <= 1 {
		t.Errorf("N=140K top-10 at p=10%% gave %g, want > 1 (paper needs ~50%%)", r)
	}
}

func TestHybridKernelLowRate(t *testing.T) {
	// At very low sampling rates the Gaussian kernel's tails inflate the
	// metric against the bulk of small flows; the hybrid kernel removes
	// most of that mass (ground truth from direct simulation: ~12).
	gauss := sprintModel(3500000, 10, 1.5)
	hybrid := gauss
	hybrid.Kernel = KernelHybrid
	g := gauss.RankingMetric(0.001)
	h := hybrid.RankingMetric(0.001)
	if h >= g/5 {
		t.Errorf("hybrid %g should be far below gaussian %g at p=0.1%%", h, g)
	}
	// Where the Gaussian is valid the two kernels agree.
	g, h = gauss.RankingMetric(0.1), hybrid.RankingMetric(0.1)
	if !almostEqual(g, h, 0.02) {
		t.Errorf("kernels should agree at p=10%%: gaussian %g hybrid %g", g, h)
	}
}

// TestMisrankExactTruncMatchesFull holds the truncated series to the full
// sum on hand-picked cells, among them the figures' range: sizes up to
// 1 000 (fig01–fig03) at the ends of OptimalRate's search, p = 1e-9 and
// 1 − 1e-12. A probability far below the dropped mass is held to an
// absolute bound instead.
func TestMisrankExactTruncMatchesFull(t *testing.T) {
	type cell struct {
		s1, s2 int
		p      float64
		abs    float64 // absolute bound, asserted where the value is below 1e-30
	}
	cases := []cell{
		{100, 15900, 0.001, 0}, {5000, 15900, 0.001, 0}, {30, 500, 0.01, 0},
		{10, 10, 0.1, 0}, {400, 400, 0.02, 0}, {3, 8, 0.5, 0}, {1, 1000, 0.005, 0},
		{300, 1000, 0.5, 1e-22},
	}
	for _, sizes := range [][2]int{{1000, 1000}, {1, 1000}, {700, 1000}} {
		for _, p := range []float64{1e-9, 1e-3, 0.5, 1 - 1e-12} {
			cases = append(cases, cell{sizes[0], sizes[1], p, 0})
		}
	}
	for _, c := range cases {
		full := misrankFullSum(c.s1, c.s2, c.p)
		trunc := MisrankExact(c.s1, c.s2, c.p)
		if c.abs > 0 {
			if !(full < 1e-30) || math.Abs(full-trunc) > c.abs {
				t.Errorf("trunc(%d,%d,%g) = %g, full = %g: want full < 1e-30 and within %g", c.s1, c.s2, c.p, trunc, full, c.abs)
			}
		} else if !almostEqual(full, trunc, 1e-9) {
			t.Errorf("trunc(%d,%d,%g) = %g, full = %g", c.s1, c.s2, c.p, trunc, full)
		}
	}
}

func TestRequiredRateHitsTarget(t *testing.T) {
	m := sprintModel(100000, 5, 1.5)
	p, err := m.RequiredRate(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RankingMetric(p); !almostEqual(got, 1, 1e-3) {
		t.Errorf("metric at required rate = %g, want 1", got)
	}
}

// --- Monte-Carlo cross-validation ---------------------------------------

// mcConfig drives the Monte-Carlo estimator of the swapped-pairs metrics.
type mcConfig struct {
	model     Model
	p         float64
	trials    int
	realize   bool // draw sampled sizes; otherwise use the analytic kernel
	detection bool
	seed      uint64
}

// mcMetric estimates the expected swapped-pairs metric by simulation,
// mirroring the model's conventions: continuous sizes (ties almost surely
// absent), pair (i,j) counted when the true-larger flow is in the top-T,
// swap when sampled(smaller) >= sampled(larger).
//
// With realize unset, the swap indicator is replaced by its conditional
// expectation given the sizes (the Gaussian kernel), which removes the
// sampling-noise variance entirely — a Rao-Blackwellized estimator whose
// only randomness is the size draw. This is the tight validation of the
// quadrature pipeline. With realize set, sampled sizes are drawn with the
// exact binomial sampler on rounded sizes, testing the whole pipeline
// including the paper's Eq. 2 modelling error (the estimator is heavy-
// tailed, so tolerances are necessarily loose).
func mcMetric(cfg mcConfig) (mean, stderr float64) {
	g := randx.New(cfg.seed)
	n := cfg.model.N
	var sum, sum2 float64
	sizes := make([]float64, n)
	sampled := make([]float64, n)
	idx := make([]int, n)
	for trial := 0; trial < cfg.trials; trial++ {
		for i := range sizes {
			sizes[i] = cfg.model.Dist.Rand(g)
			if cfg.realize {
				sampled[i] = float64(g.Binomial(int(math.Round(sizes[i])), cfg.p))
			}
		}
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return sizes[idx[a]] > sizes[idx[b]] })
		var swaps float64
		inTop := make(map[int]int, cfg.model.T) // index -> rank
		for r := 0; r < cfg.model.T; r++ {
			inTop[idx[r]] = r
		}
		for r := 0; r < cfg.model.T; r++ {
			a := idx[r]
			for j := 0; j < n; j++ {
				if j == a {
					continue
				}
				if rb, ok := inTop[j]; ok {
					if cfg.detection {
						continue // detection only counts boundary pairs
					}
					if rb < r {
						continue // top-top pair counted once
					}
				}
				small, large := j, a
				if sizes[j] > sizes[a] {
					small, large = a, j
				}
				if cfg.realize {
					if sampled[small] >= sampled[large] {
						swaps++
					}
				} else {
					swaps += misrankKernel(sizes[small], sizes[large], cfg.p)
				}
			}
		}
		sum += swaps
		sum2 += swaps * swaps
	}
	mean = sum / float64(cfg.trials)
	variance := sum2/float64(cfg.trials) - mean*mean
	stderr = math.Sqrt(variance / float64(cfg.trials))
	return mean, stderr
}

func TestRankingMetricMatchesMonteCarloKernel(t *testing.T) {
	m := Model{N: 2000, T: 3, Dist: dist.ParetoWithMean(9.6, 1.5)}
	p := 0.05
	want := m.RankingMetric(p)
	got, se := mcMetric(mcConfig{model: m, p: p, trials: 4000, seed: 123})
	if math.Abs(got-want) > 5*se+0.03*want {
		t.Errorf("MC %g ± %g vs model %g", got, se, want)
	}
}

func TestDetectionMetricMatchesMonteCarloKernel(t *testing.T) {
	m := Model{N: 2000, T: 3, Dist: dist.ParetoWithMean(9.6, 1.5)}
	p := 0.05
	want := m.DetectionMetric(p)
	got, se := mcMetric(mcConfig{model: m, p: p, trials: 4000, detection: true, seed: 456})
	if math.Abs(got-want) > 5*se+0.03*want {
		t.Errorf("MC %g ± %g vs model %g", got, se, want)
	}
}

func TestMetricsMatchMonteCarloRealized(t *testing.T) {
	// Full realization with exact binomial sampling. The per-trial metric
	// distribution is heavy-tailed, so this is a sanity band rather than a
	// tight test; the kernel MC above carries the precision.
	if testing.Short() {
		t.Skip("realized MC is slow")
	}
	m := Model{N: 2000, T: 3, Dist: dist.ParetoWithMean(9.6, 1.5)}
	p := 0.05
	wantR := m.RankingMetric(p)
	gotR, seR := mcMetric(mcConfig{model: m, p: p, trials: 4000, realize: true, seed: 321})
	if math.Abs(gotR-wantR) > 5*seR+0.35*wantR {
		t.Errorf("ranking: MC %g ± %g vs model %g", gotR, seR, wantR)
	}
	wantD := m.DetectionMetric(p)
	gotD, seD := mcMetric(mcConfig{model: m, p: p, trials: 4000, realize: true, detection: true, seed: 654})
	if math.Abs(gotD-wantD) > 5*seD+0.35*wantD {
		t.Errorf("detection: MC %g ± %g vs model %g", gotD, seD, wantD)
	}
}

func BenchmarkRankingMetricSprint(b *testing.B) {
	m := sprintModel(700000, 10, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.RankingMetric(0.1)
	}
}

// BenchmarkRankingMetricSpliced scores the model over the spliced
// sample-body + Pareto-tail mixture that invert.TailScaling feeds back
// into the control loop. The inner integrals invert the mixture CCDF at
// every quadrature node; before the step atlas (internal/dist) those
// inversions fell through to bisection on the body's atoms, making this
// ~50x slower than BenchmarkRankingMetricSprint.
func BenchmarkRankingMetricSpliced(b *testing.B) {
	body := make([]float64, 2000)
	for i := range body {
		// Mostly-distinct sizes with a few heavy duplicates — the shape of
		// a scaled sample.
		body[i] = 1 + float64(i%37) + float64(i)*7.3e-4
	}
	mix, err := dist.NewMixture(
		dist.Component{Weight: 0.9, Dist: dist.NewDiscrete(dist.Tally(body))},
		dist.Component{Weight: 0.1, Dist: dist.Pareto{Scale: 40, Shape: 1.3}},
	)
	if err != nil {
		b.Fatal(err)
	}
	m := Model{N: 700_000, T: 10, Dist: mix}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.RankingMetric(0.1)
	}
}

func BenchmarkDetectionMetricSprint(b *testing.B) {
	m := sprintModel(700000, 10, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.DetectionMetric(0.1)
	}
}
