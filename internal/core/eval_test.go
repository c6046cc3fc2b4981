package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"flowrank/internal/dist"
	"flowrank/internal/randx"
)

// TestMixtureEvaluationTerminates: a two-class Pareto mixture of the kind
// fitted to real traffic, with few enough flows that the outer integral
// crosses the size where the classes' tails cross. The quantile-space
// evaluator did not finish one of these evaluations in six minutes (its
// adaptive rule recursed to the depth limit at the kink of the mixture's
// inverse CCDF); integrating each class in its own quantile space has no
// kink to find.
func TestMixtureEvaluationTerminates(t *testing.T) {
	mix, err := dist.NewMixture(
		dist.Component{Weight: 0.9, Dist: dist.ParetoWithMean(5, 2.5)},
		dist.Component{Weight: 0.1, Dist: dist.ParetoWithMean(200, 1.3)})
	if err != nil {
		t.Fatal(err)
	}
	m := Model{N: 500, T: 5, Dist: mix, Kernel: KernelHybrid, Workers: 1}
	prevR, prevD := 0.0, 0.0
	for _, p := range []float64{0.99, 0.5, 0.1} {
		start := time.Now()
		r, d := m.RankingMetric(p), m.DetectionMetric(p)
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("p=%g: evaluation took %v, want under 5s", p, el)
		}
		if !(r > prevR && d > prevD) {
			t.Errorf("p=%g: ranking %g (was %g), detection %g (was %g): not increasing as p falls", p, r, prevR, d, prevD)
		}
		if !(d <= r) {
			t.Errorf("p=%g: detection %g above ranking %g", p, d, r)
		}
		prevR, prevD = r, d
		t.Logf("p=%g: ranking %.6g detection %.6g in %v", p, r, d, time.Since(start))
	}
}

// conformanceLaws are the seven laws of the conformance grid: the five
// closed forms, a sample of one of them, and its projection on whole
// packets. The last two are step laws.
func conformanceLaws() (laws []dist.SizeDist, stepLaw []bool) {
	pareto := dist.ParetoWithMean(9.6, 1.5)
	g := randx.New(7)
	sample := make([]float64, 500)
	for i := range sample {
		sample[i] = pareto.Rand(g)
	}
	return []dist.SizeDist{
		pareto,
		dist.BoundedPareto{Scale: 3.2, Max: 1e6, Shape: 1.5},
		dist.ExponentialWithMean(1, 9.6),
		dist.Weibull{Min: 1, Lambda: 8, K: 0.6},
		dist.Lognormal{Min: 1, Mu: 1.2, Sigma: 1.1},
		dist.NewDiscrete(dist.Tally(sample)),
		dist.NewDiscreteFromPMF(dist.Discretize(pareto, 3000)),
	}, []bool{5: true, 6: true}
}

// TestEvalMatchesReference holds the size-space evaluator to the reference
// evaluator (eval_reference_test.go) over 7 laws × N ∈ {500, 38 240, 7·10⁵}
// × t ∈ {1, 10, 25} × p ∈ {0.9, 0.5, 0.1, 0.03, 0.01} × both kernels × both
// metrics, at outer order 4 — the outer rule is shared, so fewer nodes cost
// coverage of nothing that differs — and checks on every cell what needs no
// reference: finite positive values, detection <= ranking, and detection ==
// ranking at t = 1 (§7.1), which the new evaluator meets to 1e-8 on all 210
// such cells and the reference misses by up to 4e-4.
//
// How closely the reference can be followed is set by the reference:
//
//   - Its absolute 1e-13 per inner integral is, after the metric's N²
//     prefactor, an absolute error of order N·λmax·1e-13 on the metric, and
//     adaptive Simpson's true error runs to a few hundred times its target
//     where the first five abscissas see almost nothing of a peak (tightening
//     it to 1e-19 brings the Weibull N = 7·10⁵, t = 25, p = 0.5 detection cell
//     from 5e-4 away to 1e-14 away from the new value). Every comparison
//     therefore allows 300·N·λmax·1e-13 on top of its relative bound.
//   - Smooth cells (continuous law, Gaussian kernel) are held to 1e-6.
//   - Step cells (hybrid kernel or a step law) are held to 5e-5: Simpson's
//     acceptance test passes by coincidence on a staircase whose landings
//     follow a smooth curve, and a fine midpoint rule over the reference's
//     own integrand sides with the cell sums (Pareto, N = 38 240, p = 0.01,
//     u = 5e-4: cell sum 1.324353255e-4, 2·10⁷-point midpoint 1.324353225e-4,
//     reference 1.32447071e-4). Below p = 0.5 at N > 500 that noise reaches
//     1.2e-4 and a value costs the reference up to seconds (those 324 values
//     are half of the five minutes the whole grid takes it at outer order
//     40): they are skipped, and the row forms' own test, the continued
//     kernel's, and the p >= 0.5 and N = 500 cells carry the step logic.
//   - Detection over a step law at N > 500 is skipped: an atom there spans
//     many ranks, the boundary weight rises and saturates inside it, and the
//     reference's first abscissas miss the rise altogether (44 % low on the
//     discretized Pareto at N = 7·10⁵, t = 25, p = 0.9).
//
// Under -short every 33rd cell of the loop nest runs: a 20-cell diagonal of
// the 630 on which every law, N, t, p and both kernels appear (checked
// below), 28 values held to the reference.
func TestEvalMatchesReference(t *testing.T) {
	var compared, skipped, cells, ran int
	grid, stride := "full grid", 1
	if testing.Short() {
		grid, stride = "short diagonal", 33
	}
	seen := map[[2]any]bool{} // (axis, value) pairs the cells that ran cover
	laws, stepLaw := conformanceLaws()
	for li, d := range laws {
		for _, n := range []int{500, 38240, 700000} {
			for _, top := range []int{1, 10, 25} {
				for _, p := range []float64{0.9, 0.5, 0.1, 0.03, 0.01} {
					for _, kernel := range []Kernel{KernelGaussian, KernelHybrid} {
						if cells++; (cells-1)%stride != 0 {
							continue
						}
						ran++
						for axis, v := range []any{li, n, top, p, kernel} {
							seen[[2]any{axis, v}] = true
						}
						m := Model{N: n, T: top, Dist: d, Kernel: kernel, outerOrder: 4}
						rank, det := m.RankingMetric(p), m.DetectionMetric(p)
						name := fmt.Sprintf("%v N=%d t=%d p=%g kernel=%d", d, n, top, p, kernel)
						if !(rank > 0 && det > 0 && det <= rank*(1+1e-9)) || math.IsInf(rank, 0) {
							t.Errorf("%s: ranking %g, detection %g", name, rank, det)
						}
						if top == 1 && math.Abs(det-rank) > 1e-8*rank {
							t.Errorf("%s: detection %.12g != ranking %.12g at t = 1", name, det, rank)
						}
						step := stepLaw[li] || kernel == KernelHybrid
						if step && n > 500 && p < 0.5 {
							skipped += 2
							continue
						}
						rel := 1e-6
						if step {
							rel = 5e-5
						}
						floor := 300 * float64(n) * lambdaMax(top) * refInnerTol
						if want := refRankingMetric(m, p, poissonWeights); math.Abs(rank-want) > rel*want+floor {
							t.Errorf("%s: ranking %.12g, reference %.12g", name, rank, want)
						}
						compared++
						if stepLaw[li] && n > 500 {
							skipped++
							continue
						}
						if want := refDetectionMetric(m, p, poissonWeights); math.Abs(det-want) > rel*want+floor {
							t.Errorf("%s: detection %.12g, reference %.12g", name, det, want)
						}
						compared++
					}
				}
			}
		}
	}
	if want := len(laws) + 3 + 3 + 5 + 2; len(seen) != want {
		t.Errorf("%s covers %d axis values of %d: %v", grid, len(seen), want, seen)
	}
	t.Logf("%s, %d of %d cells: %d values held to the reference, %d skipped", grid, ran, cells, compared, skipped)
}

// TestCellSumsMatchDirectSums checks the cell walks — row forms, shared
// half-integer tails, clipping at x and at the hybrid threshold, the early
// stop — against the sums written out: one MisrankExact and two CCDF
// calls per cell, every cell to the truncation size.
func TestCellSumsMatchDirectSums(t *testing.T) {
	m := adaptLoopModel()
	for _, p := range []float64{0.9, 0.1, 0.01} {
		e := m.newEval(p)
		yCut := hybridThreshold / p
		for _, u := range []float64{1e-5, 1e-4, 5e-4, 2e-3} {
			x := m.Dist.QuantileCCDF(u)
			big := roundSize(x)
			yTop := math.Min(x, yCut)
			var below float64
			for j := 1; j <= roundSize(yTop); j++ {
				a, b := math.Max(e.ymin, float64(j)-0.5), math.Min(yTop, float64(j)+0.5)
				if b > a {
					below += MisrankExact(j, big, p) * (m.Dist.CCDF(a) - m.Dist.CCDF(b))
				}
			}
			if got := e.cellsBelow(x, yTop, nil); math.Abs(got-below) > 1e-10*below+1e-100 {
				t.Errorf("p=%g u=%g: cells below %.15g, direct sum %.15g", p, u, got, below)
			}
			if p*x >= hybridThreshold {
				continue
			}
			c2 := 2 * 6.5 * 6.5 * (1/p - 1)
			yEnd := x + (c2+math.Sqrt(c2*c2+8*c2*x))/2
			var above float64
			for j := big; float64(j)-0.5 < yEnd; j++ {
				a, b := math.Max(x, float64(j)-0.5), math.Min(yEnd, float64(j)+0.5)
				above += MisrankExact(big, j, p) * (m.Dist.CCDF(a) - m.Dist.CCDF(b))
			}
			if got := e.cellsAbove(x, yEnd); math.Abs(got-above) > 2*stopTol*above {
				t.Errorf("p=%g u=%g: cells above %.15g, direct sum %.15g", p, u, got, above)
			}
		}
	}
}

// TestLowRateMatchesConvergedValues pins the rates where the cells above x
// hand over to the continued kernel (below ~3e-4) to the values the
// quantile-space evaluator converged to there in 3 to 8 seconds each — its
// steps are so narrow at these rates that it resolved them.
func TestLowRateMatchesConvergedValues(t *testing.T) {
	m := adaptLoopModel()
	prev := 0.0
	for _, c := range []struct{ p, want float64 }{
		{1e-3, 115672.037339},
		{3e-4, 0},
		{1e-4, 326692.358756},
		{1e-5, 375655.316749},
		{1e-6, 381664.490270},
	} {
		got := m.RankingMetric(c.p)
		if c.want != 0 && math.Abs(got-c.want) > 1e-8*c.want {
			t.Errorf("p=%g: %.12g, want %.12g", c.p, got, c.want)
		}
		if !(got > prev) {
			t.Errorf("p=%g: %.12g not above %.12g at the rate before", c.p, got, prev)
		}
		prev = got
	}
}

// TestMixturesMatchReference: the laws the conformance grid leaves out
// because they are combinations — a smooth two-class mixture at a flow count
// where the reference still returns, and the spliced body-plus-tail mixture
// invert.TailScaling builds, whose atoms and continuous mass share a size
// range (so the detection weight of a cell is interrupted by atoms).
func TestMixturesMatchReference(t *testing.T) {
	smooth, err := dist.NewMixture(
		dist.Component{Weight: 0.8, Dist: dist.ExponentialWithMean(1, 4)},
		dist.Component{Weight: 0.2, Dist: dist.ParetoWithMean(40, 1.5)})
	if err != nil {
		t.Fatal(err)
	}
	body := []float64{1, 1, 1, 2, 2, 3, 3.5, 4, 6, 6, 9, 12.25, 14, 20, 31}
	spliced, err := dist.NewMixture(
		dist.Component{Weight: 0.85, Dist: dist.NewDiscrete(dist.Tally(body))},
		dist.Component{Weight: 0.15, Dist: dist.Pareto{Scale: 8, Shape: 1.4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		law  dist.SizeDist
		n, t int
		rel  float64
	}{
		{smooth, 40000, 10, 1e-6},
		{spliced, 500, 5, 5e-5},
	} {
		for _, kernel := range []Kernel{KernelGaussian, KernelHybrid} {
			for _, p := range []float64{0.9, 0.5, 0.1} {
				m := Model{N: c.n, T: c.t, Dist: c.law, Kernel: kernel, outerOrder: 8}
				floor := 300 * float64(c.n) * lambdaMax(c.t) * refInnerTol
				if got, want := m.RankingMetric(p), refRankingMetric(m, p, poissonWeights); math.Abs(got-want) > c.rel*want+floor {
					t.Errorf("%v kernel=%d p=%g: ranking %.12g, reference %.12g", c.law, kernel, p, got, want)
				}
				if got, want := m.DetectionMetric(p), refDetectionMetric(m, p, poissonWeights); math.Abs(got-want) > c.rel*want+floor {
					t.Errorf("%v kernel=%d p=%g: detection %.12g, reference %.12g", c.law, kernel, p, got, want)
				}
			}
		}
	}
}
