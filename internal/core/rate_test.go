package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"flowrank/internal/dist"
	"flowrank/internal/numeric"
)

// adaptLoopModel is the model bench's adapt-loop workload fits on seed 1
// (sprint5 trace sampled at 10 %, parametric inversion): the refit the
// benchmark times is RequiredRate(1, false) on exactly this.
func adaptLoopModel() Model {
	return Model{
		N:       38240,
		T:       10,
		Dist:    dist.ParetoWithMean(12.38, 1.64),
		Kernel:  KernelHybrid,
		Workers: 2,
	}
}

// probeLog wraps a metric and records every abscissa it is asked for.
type probeLog struct {
	metric func(p float64) float64
	ps     []float64
}

func (l *probeLog) eval(p float64) float64 {
	l.ps = append(l.ps, p)
	return l.metric(p)
}

// checkNoRepeat fails when any abscissa was evaluated twice.
func (l *probeLog) checkNoRepeat(t *testing.T, name string) {
	t.Helper()
	seen := map[float64]bool{}
	for _, p := range l.ps {
		if seen[p] {
			t.Errorf("%s: p = %.17g evaluated twice (probes %v)", name, p, l.ps)
		}
		seen[p] = true
	}
}

func (l *probeLog) min() float64 {
	lo := math.Inf(1)
	for _, p := range l.ps {
		lo = math.Min(lo, p)
	}
	return lo
}

func (l *probeLog) count(p float64) int {
	n := 0
	for _, q := range l.ps {
		if q == p {
			n++
		}
	}
	return n
}

// stubMetric is a metric-shaped function with an analytic root: strictly
// decreasing in p, zero at p = 1, and equal to 1 exactly at p = root. It is
// r^1.5 in the odds ratio r = (1/p − 1)/(1/root − 1), so its logarithm is a
// straight line in the log-odds ln(1/p − 1), which the polish solves on its
// first secant step.
func stubMetric(root float64) func(p float64) float64 {
	return func(p float64) float64 {
		r := (1/p - 1) / (1/root - 1)
		return r * math.Sqrt(r)
	}
}

// curvedStubMetric is stubMetric times √((1+r)/2): still 1 at the root, but
// its log-odds slope runs from 1.5 to 2 across the bracket, so Brent has to
// iterate on it.
func curvedStubMetric(root float64) func(p float64) float64 {
	straight := stubMetric(root)
	return func(p float64) float64 {
		r := (1/p - 1) / (1/root - 1)
		return straight(p) * math.Sqrt((1+r)/2)
	}
}

// TestSolveRateProbeBudget pins what the search is allowed to spend: no
// abscissa twice, nothing below the one descent step that first falls
// under the root, the floor only when the descent gets there, at most 20
// evaluations for a root anywhere in [1e-4, 0.99], and at most 8 for a
// root at or above 0.25 on the curved stub.
func TestSolveRateProbeBudget(t *testing.T) {
	// descentBelow replays the descent grid and returns its first point
	// below root — the lowest abscissa the search may touch.
	descentBelow := func(root float64) float64 {
		lp := math.Log(rateCeil)
		for math.Exp(lp) >= root && lp > math.Log(rateFloor) {
			lp = math.Max(math.Log(rateFloor), lp-rateStep)
		}
		return math.Exp(lp)
	}
	// The floor as the search evaluates it: through exp(log p).
	floorP := math.Exp(math.Log(rateFloor))
	roots := []float64{0.99, 0.9039}
	for r := 0.7; r >= 1e-4; r /= 1.9 {
		roots = append(roots, r)
	}
	roots = append(roots, 1e-4)
	for _, root := range roots {
		for _, stub := range []struct {
			name   string
			metric func(root float64) func(p float64) float64
		}{{"straight", stubMetric}, {"curved", curvedStubMetric}} {
			name := fmt.Sprintf("%s stub, root %g", stub.name, root)
			log := &probeLog{metric: stub.metric(root)}
			got, err := solveRate(log.eval, 1, rateFloor, rateCeil)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if math.Abs(got-root) > 1e-5*root {
				t.Errorf("%s: solved %g", name, got)
			}
			log.checkNoRepeat(t, name)
			if want := descentBelow(root); log.min() != want {
				t.Errorf("%s: lowest probe %g, want the bracketing step %g (probes %v)", name, log.min(), want, log.ps)
			}
			if log.count(floorP) != 0 {
				t.Errorf("%s: floor evaluated though the descent never reached it (probes %v)", name, log.ps)
			}
			budget := 20
			if stub.name == "curved" && root >= 0.25 {
				budget = 8
			}
			if len(log.ps) > budget {
				t.Errorf("%s: %d evaluations, budget %d (probes %v)", name, len(log.ps), budget, log.ps)
			}
		}
	}

	// The descent reaches the floor: it is evaluated exactly once, and is
	// the answer when the metric meets the target even there.
	for _, c := range []struct {
		root float64
		want float64 // 0: the root itself
	}{{2e-6, 0}, {1e-7, rateFloor}} {
		name := fmt.Sprintf("root %g", c.root)
		log := &probeLog{metric: stubMetric(c.root)}
		got, err := solveRate(log.eval, 1, rateFloor, rateCeil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := c.want
		if want == 0 {
			want = c.root
		}
		if math.Abs(got-want) > 1e-5*want {
			t.Errorf("%s: solved %g, want %g", name, got, want)
		}
		log.checkNoRepeat(t, name)
		if n := log.count(floorP); n != 1 {
			t.Errorf("%s: floor evaluated %d times, want once (probes %v)", name, n, log.ps)
		}
	}

	// Still above target at the ceiling: one probe, the sentinel.
	log := &probeLog{metric: func(float64) float64 { return 2 }}
	if _, err := solveRate(log.eval, 1, rateFloor, rateCeil); !errors.Is(err, ErrTargetUnreachable) || len(log.ps) != 1 {
		t.Errorf("flat metric above target: err = %v after probes %v, want ErrTargetUnreachable after one", err, log.ps)
	}
	// A NaN metric is an error, not "target met down to the floor".
	if p, err := solveRate(func(float64) float64 { return math.NaN() }, 1, rateFloor, rateCeil); err == nil || errors.Is(err, ErrTargetUnreachable) {
		t.Errorf("NaN metric: solved %g, err = %v, want a plain error", p, err)
	}
}

// TestRequiredRateAdaptLoopProbes: on the model the benchmark refits, the
// search stays at the cheap end — no probe below p = 5 %, none repeated —
// and both metrics are solved in at most 7 evaluations: the ceiling, one
// descent step, and a polish that the metric's straight log-odds line
// finishes in a few more.
func TestRequiredRateAdaptLoopProbes(t *testing.T) {
	m := adaptLoopModel()
	for _, c := range []struct {
		name   string
		metric func(p float64) float64
		want   float64
	}{{"ranking", m.RankingMetric, 0.9039}, {"detection", m.DetectionMetric, 0.3007}} {
		log := &probeLog{metric: c.metric}
		p, err := solveRate(log.eval, 1, rateFloor, rateCeil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(p-c.want) > 1e-3 {
			t.Errorf("%s: required rate %g, want %g", c.name, p, c.want)
		}
		log.checkNoRepeat(t, c.name)
		if log.min() < 0.05 {
			t.Errorf("%s: probe at p = %g, below 5%% (probes %v)", c.name, log.min(), log.ps)
		}
		if len(log.ps) > 7 {
			t.Errorf("%s: %d evaluations, budget 7 (probes %v)", c.name, len(log.ps), log.ps)
		}
		t.Logf("%s: p = %.6g after %d evaluations", c.name, p, len(log.ps))
	}
}

// TestRequiredRateInInterval: RequiredRateIn is RequiredRate clamped to the
// interval, with nothing evaluated outside it.
func TestRequiredRateInInterval(t *testing.T) {
	m := adaptLoopModel()
	full, err := m.RequiredRate(1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Root above the interval, inside it, and below it.
	if _, err := m.RequiredRateIn(1, false, 0.05, 0.5); !errors.Is(err, ErrTargetUnreachable) {
		t.Errorf("[0.05, 0.5] with root %g: err = %v, want ErrTargetUnreachable", full, err)
	}
	if p, err := m.RequiredRateIn(1, false, 0.05, 1); err != nil || math.Abs(p-full) > 1e-5*full {
		t.Errorf("[0.05, 1] = (%g, %v), want %g", p, err, full)
	}
	if p, err := m.RequiredRateIn(1, false, 0.95, 1); err != nil || p != 0.95 {
		t.Errorf("[0.95, 1] = (%g, %v), want the floor 0.95", p, err)
	}
	for _, iv := range [][2]float64{{0, 0.5}, {0.5, 0.1}, {0.5, 1.5}, {math.NaN(), 1}} {
		if p, err := m.RequiredRateIn(1, false, iv[0], iv[1]); err == nil {
			t.Errorf("interval %v accepted, rate %g", iv, p)
		}
	}
	if _, err := m.RequiredRate(0, false); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := (Model{N: 1}).RequiredRate(1, false); err == nil {
		t.Error("invalid model accepted")
	}
}

// TestRequiredRateInClampEquivalence: solving inside an interval returns
// what solving on [1e-6, 1) and clamping afterwards returned. The
// reference rates are that older solve-then-clamp output on the same
// fitted populations (Pareto mean 9.6, β 1.5; target 1; interval
// [0.05, 0.5]; a root above the interval is answered with its top, as the
// adaptive controller does): clamped answers must match exactly, the
// interior ones to the solver's tolerance.
func TestRequiredRateInClampEquivalence(t *testing.T) {
	const lo, hi = 0.05, 0.5
	cases := []struct {
		name      string
		flows     float64
		topT      int
		detection bool
		want      float64
		exact     bool
	}{
		{"root 0.3% below the interval", 3_500_000, 5, true, lo, true},
		{"root inside, upper half", 3_500_000, 10, false, 0.26454575815728126, false},
		{"root inside, near the floor", 200_000, 5, false, 0.097644761109387745, false},
		{"root 51% above the interval", 700_000, 10, false, hi, true},
	}
	for _, c := range cases {
		m := FitModel(c.flows, dist.ParetoWithMean(9.6, 1.5), c.topT, 0)
		got, err := m.RequiredRateIn(1, c.detection, lo, hi)
		if errors.Is(err, ErrTargetUnreachable) {
			got, err = hi, nil
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if (c.exact && got != c.want) || math.Abs(got-c.want) > 1e-5*c.want {
			t.Errorf("%s: solved %.17g, solve-then-clamp gave %.17g", c.name, got, c.want)
		}
	}
}

// TestFitModel: the fitted population is the rounded flow count, raised
// to t+1 when the estimate holds no more flows than the top list.
func TestFitModel(t *testing.T) {
	d := dist.ParetoWithMean(9.6, 1.5)
	for _, c := range []struct {
		flows float64
		want  int
	}{{1234.5, 1235}, {1234.4, 1234}, {10, 11}, {0, 11}} {
		m := FitModel(c.flows, d, 10, 3)
		if m.N != c.want || m.T != 10 || m.Dist != d || m.Kernel != KernelHybrid || m.Workers != 3 {
			t.Errorf("FitModel(%g) = %+v, want N = %d", c.flows, m, c.want)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("FitModel(%g): %v", c.flows, err)
		}
	}
}

// TestOptimalRateNoDoubleEvaluation: the pairwise solve hands Brent the two
// endpoint values it checked, so no abscissa is evaluated twice.
func TestOptimalRateNoDoubleEvaluation(t *testing.T) {
	for _, target := range []float64{1e-3, 0.2} {
		log := &probeLog{metric: func(p float64) float64 { return MisrankExact(50, 100, p) }}
		got, err := optimalRate(log.eval, target)
		if err != nil {
			t.Fatal(err)
		}
		want, err := OptimalRate(50, 100, target, RateExact)
		if err != nil || got != want {
			t.Errorf("target %g: optimalRate = %g, OptimalRate = (%g, %v)", target, got, want, err)
		}
		log.checkNoRepeat(t, fmt.Sprintf("target %g", target))
	}
	// Above target even at p≈1 is the sentinel.
	if _, err := optimalRate(func(float64) float64 { return 0.9 }, 0.5); !errors.Is(err, ErrTargetUnreachable) {
		t.Errorf("err = %v, want ErrTargetUnreachable", err)
	}
}

// coldRequiredRate is the solve as it was before the search was turned
// around, kept here as the reference: probe the floor, probe the ceiling,
// then Brent over the whole interval (re-evaluating both ends).
func coldRequiredRate(metric func(p float64) float64, target float64) (float64, error) {
	if metric(rateFloor) <= target {
		return rateFloor, nil
	}
	f := func(lp float64) float64 {
		return math.Log(metric(math.Exp(lp))+1e-300) - math.Log(target)
	}
	lo, hi := math.Log(rateFloor), math.Log(rateCeil)
	if f(hi) > 0 {
		return 0, ErrTargetUnreachable
	}
	lp, err := numeric.BrentBracket(f, lo, f(lo), hi, f(hi), 1e-6)
	if err != nil {
		return 0, err
	}
	return math.Exp(lp), nil
}

// TestRequiredRateMatchesColdSolve is the differential: over size laws,
// populations, top-list lengths, targets and both metrics, the top-down
// solve must return what the cold full-bracket solve returns — the same
// root within 1e-5 relative, the floor where that is the answer, the
// ceiling error where even p≈1 is not enough.
//
// What makes a cold solve dear is the hybrid kernel's exact branch at low
// p (up to half a second per probe around p = 5e-4, where the integer cells
// above a flow are many and not yet narrow enough to integrate; seconds
// when this grid was laid out), so the full grid runs on the Gaussian kernel — the
// same metric shape at tens of milliseconds a probe — and the hybrid kernel
// on one population per law. Both run at a low outer order: the solvers see
// the same function whatever the quadrature. The targets of one model share
// a memo of metric values, which spares the reference its repeated floor
// probes and changes no value either solver sees. Under -short the grid
// keeps N = 40 000 and one hybrid cell.
func TestRequiredRateMatchesColdSolve(t *testing.T) {
	mix, err := dist.NewMixture(
		dist.Component{Weight: 0.8, Dist: dist.ExponentialWithMean(1, 4)},
		dist.Component{Weight: 0.2, Dist: dist.ParetoWithMean(40, 1.5)})
	if err != nil {
		t.Fatal(err)
	}
	var floors, ceilings, below1pct int
	check := func(m Model, detection bool, targets ...float64) {
		t.Helper()
		metric := m.RankingMetric
		if detection {
			metric = m.DetectionMetric
		}
		memo := map[float64]float64{}
		memoized := func(p float64) float64 {
			v, ok := memo[p]
			if !ok {
				v = metric(p)
				memo[p] = v
			}
			return v
		}
		for _, target := range targets {
			name := fmt.Sprintf("%v N=%d t=%d kernel=%d target=%g detection=%v", m.Dist, m.N, m.T, m.Kernel, target, detection)
			want, wantErr := coldRequiredRate(memoized, target)
			got, err := solveRate(memoized, target, rateFloor, rateCeil)
			switch {
			case wantErr != nil:
				ceilings++
				if !errors.Is(err, ErrTargetUnreachable) {
					t.Errorf("%s: err = %v, cold solve: %v", name, err, wantErr)
				}
			case err != nil:
				t.Errorf("%s: %v, cold solve found %g", name, err, want)
			case want == rateFloor:
				floors++
				if got != rateFloor {
					t.Errorf("%s: %g, cold solve returned the floor", name, got)
				}
			default:
				if want < 0.01 {
					below1pct++
				}
				if math.Abs(got-want) > 1e-5*want {
					t.Errorf("%s: %g, cold solve %g", name, got, want)
				}
			}
		}
	}

	laws := []dist.SizeDist{
		dist.ParetoWithMean(9.6, 1.2),
		dist.ParetoWithMean(12.38, 1.64),
		dist.ParetoWithMean(9.6, 2.5),
		dist.ExponentialWithMean(1, 9.6),
		mix,
	}
	for _, d := range laws {
		isMix := d == dist.SizeDist(mix)
		for _, detection := range []bool{false, true} {
			for _, n := range []int{500, 40_000, 1_000_000} {
				if n != 40_000 && testing.Short() {
					continue
				}
				for _, top := range []int{1, 10, 50} {
					m := Model{N: n, T: top, Dist: d, outerOrder: 8}
					check(m, detection, 0.1, 1, 10)
				}
			}
			if isMix || (testing.Short() && !(d == laws[1] && detection)) {
				continue // the mixture's hybrid cold solves take 13 s
			}
			// No grid target is loose enough for the floor to be the
			// answer, or tight enough for the ceiling error.
			m := Model{N: 40_000, T: 10, Dist: d, Kernel: KernelHybrid, outerOrder: 4}
			check(m, detection, 1e-7, 0.1, 1, 10, 1e10)
		}
	}
	if floors == 0 || ceilings == 0 || below1pct == 0 {
		t.Errorf("grid covered %d floor answers, %d ceiling errors, %d interior roots below 1%%; want some of each",
			floors, ceilings, below1pct)
	}
	t.Logf("%d floor answers, %d ceiling errors, %d interior roots below 1%%", floors, ceilings, below1pct)
}

// BenchmarkRequiredRate is one control decision of the closed loop: the
// rate solve on the model bench's adapt-loop workload fits. evals/op is the
// number of metric evaluations the solve makes — the unit a regression in
// the search shows up in before it shows up as a slow suite.
func BenchmarkRequiredRate(b *testing.B) {
	log := &probeLog{metric: adaptLoopModel().RankingMetric}
	for i := 0; i < b.N; i++ {
		if _, err := solveRate(log.eval, 1, rateFloor, rateCeil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(log.ps))/float64(b.N), "evals/op")
}

// BenchmarkRankingMetric is one model evaluation on the adapt-loop model,
// near the rate the refit settles at and one and two decades below it.
// probes/op is the number of integrand probes the evaluation makes — smooth
// integrand evaluations plus step terms, through probeCounter — and repeats
// exactly from run to run: a regression in the integrator (a lost seed, a
// tolerance nobody can use, a cell walk that stops late) moves it before it
// moves a stopwatch.
func BenchmarkRankingMetric(b *testing.B) {
	for _, p := range []float64{0.9, 0.1, 0.01} {
		b.Run(fmt.Sprintf("p=%g", p), func(b *testing.B) {
			m := adaptLoopModel()
			var probes atomic.Int64
			probeCounter = &probes
			defer func() { probeCounter = nil }()
			for i := 0; i < b.N; i++ {
				if v := m.RankingMetric(p); !(v > 0) {
					b.Fatalf("metric %g", v)
				}
			}
			b.ReportMetric(float64(probes.Load())/float64(b.N), "probes/op")
		})
	}
}
