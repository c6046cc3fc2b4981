package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"flowrank/internal/dist"
	"flowrank/internal/numeric"
)

// Model evaluates the paper's ranking (§5–6) and detection (§7) metrics for
// a traffic mix of N flows whose sizes follow Dist, when the top T flows
// are of interest.
//
// The zero value is not usable; construct with the exported fields and call
// Validate (or let the metric methods do it). A Model is immutable and safe
// for concurrent use.
type Model struct {
	// N is the total number of flows in the measurement interval.
	N int
	// T is the number of top flows to rank or detect (t in the paper).
	T int
	// Dist is the flow size distribution in packets.
	Dist dist.SizeDist

	// Kernel selects the pairwise misranking kernel. KernelGaussian (the
	// default) is the paper's Eq. 2 applied everywhere, reproducing the
	// paper's model figures exactly. KernelHybrid switches to the exact
	// binomial probability whenever p·min(s1,s2) < hybridThreshold, where
	// the Gaussian tails badly overestimate misranking against the bulk
	// of small flows; at low sampling rates this can change the metric by
	// an order of magnitude and brings the model onto the trace-driven
	// simulation (the kernels figure of cmd/flowrank-bench).
	Kernel Kernel

	// Workers bounds the outer-quadrature parallelism of one metric
	// evaluation: 0 means GOMAXPROCS, 1 a pool of one worker. The outer
	// Gauss–Legendre nodes are independent, each worker evaluates its own
	// nodes with its own evaluation state, and the node values are merged
	// in node order with one compensated summation — so every worker
	// count produces the bit-identical metric.
	Workers int

	// outerOrder is the Gauss–Legendre order per outer panel when set: a
	// test hook, like probeCounter, that in-package tests lower to keep
	// their grids cheap. Production leaves it 0, which is order 40.
	outerOrder int
}

// FitModel is the model a monitor fits to an inverted flow population —
// flows estimated original flows whose sizes follow d — when it ranks the
// top t: N is flows rounded, raised to t+1 so the top list is a proper
// subset, with the hybrid kernel. The adaptive controller's refit and the
// network allocator's per-link scoring both use it.
func FitModel(flows float64, d dist.SizeDist, t, workers int) Model {
	return Model{
		N:       max(int(flows+0.5), t+1),
		T:       t,
		Dist:    d,
		Kernel:  KernelHybrid,
		Workers: workers,
	}
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.N < 2 {
		return fmt.Errorf("core: N = %d, need at least 2 flows", m.N)
	}
	if m.T < 1 || m.T >= m.N {
		return fmt.Errorf("core: T = %d outside [1, N-1]", m.T)
	}
	if m.Dist == nil {
		return fmt.Errorf("core: nil flow size distribution")
	}
	return nil
}

func (m Model) order() int {
	if m.outerOrder <= 0 {
		return 40
	}
	return m.outerOrder
}

// hybridThreshold is the p·size level below which KernelHybrid uses the
// exact binomial kernel.
const hybridThreshold = 10

// Kernel selects the pairwise misranking kernel used inside a Model.
type Kernel int

const (
	// KernelGaussian applies Eq. 2 to every pair — the paper's model.
	KernelGaussian Kernel = iota
	// KernelHybrid uses the exact binomial misranking probability where
	// the smaller flow samples fewer than hybridThreshold packets in
	// expectation, and Eq. 2 elsewhere.
	KernelHybrid
)

// lambdaMax is the Poisson intensity beyond which the top-t membership
// weight is below ~1e-16 and the outer integral can be truncated.
func lambdaMax(t int) float64 {
	ft := float64(t)
	return ft + 50 + 10*math.Sqrt(ft)
}

// uHi returns the quantile-space truncation point of the outer integral.
func (m Model) uHi() float64 {
	u := lambdaMax(m.T) / float64(m.N-1)
	if u > 1 {
		return 1
	}
	return u
}

// outerPanels returns quantile-space panel boundaries [0=w0 < w1 < ... = 1]
// (as fractions of uHi) concentrating nodes around the top-t knee.
func (m Model) outerPanels() []float64 {
	lm := lambdaMax(m.T)
	ft := float64(m.T)
	w1 := ft / lm
	w2 := (ft + 10 + 3*math.Sqrt(ft)) / lm
	panels := []float64{0}
	if w1 > 0.02 && w1 < 0.98 {
		panels = append(panels, w1)
	}
	if w2 > w1+0.02 && w2 < 0.98 {
		panels = append(panels, w2)
	}
	return append(panels, 1)
}

// RankingMetric returns the expected number of swapped flow pairs whose
// first element is an original top-T flow — the paper's §5 performance
// metric, (2N−t−1)·t/2 · P̄mt. Values below 1 mean the full ordered top-T
// list is on average reproduced correctly from samples taken at rate p.
func (m Model) RankingMetric(p float64) float64 {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		// Everything unsampled: all pairs swapped.
		n, t := float64(m.N), float64(m.T)
		return (2*n - t - 1) * t / 2
	}
	uhi := m.uHi()
	integral := m.integrateOuter(func() numeric.Func1 {
		ev := m.newEval(p)
		return func(w float64) float64 {
			u := w * uhi
			if u <= 0 {
				u = math.SmallestNonzeroFloat64
			}
			x := m.Dist.QuantileCCDF(u)
			below := topProb(u, m.T, m.N-1) * ev.below(u, x, nil)
			var above float64
			if m.T > 1 {
				above = topProb(u, m.T-1, m.N-1) * ev.above(u, x)
			}
			ev.flushProbes()
			return below + above
		}
	}) * uhi
	n, t := float64(m.N), float64(m.T)
	return (2*n - t - 1) / 2 * n * integral
}

// DetectionMetric returns the expected number of swapped pairs straddling
// the top-T boundary — the paper's §7 metric, t(N−t)·P̄*mt. Values below 1
// mean the top-T *set* is on average recovered correctly.
func (m Model) DetectionMetric(p float64) float64 {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		n, t := float64(m.N), float64(m.T)
		return t * (n - t)
	}
	uhi := m.uHi()
	integral := m.integrateOuter(func() numeric.Func1 {
		ev := m.newEval(p)
		jw := newJointWeight(m)
		return func(w float64) float64 {
			u := w * uhi
			if u <= 0 {
				u = math.SmallestNonzeroFloat64
			}
			x := m.Dist.QuantileCCDF(u)
			jw.u, jw.pmfBig = u, topPMF(jw.pmfBig, u, m.T, m.N)
			v := ev.below(u, x, jw)
			ev.flushProbes()
			return v
		}
	}) * uhi
	n := float64(m.N)
	return n * (n - 1) * integral
}

// integrateOuter integrates the metric integrand over w in [0, 1] with
// Gauss–Legendre panels concentrated around the top-t membership knee.
//
// A pool of outerWorkers goroutines, never more than there are nodes,
// evaluates every (panel, node) abscissa; newIntegrand builds one
// integrand instance per worker with its own evaluation state (the law
// taken apart, scratch buffers), so workers never share mutable state.
// The node values are then reduced panel by panel in node order with the
// same compensated summation as numeric.GaussLegendre. Every node value is
// a pure function of its abscissa, so the integral is bit-identical at
// every worker count, one included.
func (m Model) integrateOuter(newIntegrand func() numeric.Func1) float64 {
	panels := m.outerPanels()
	order := m.order()
	nPanels := len(panels) - 1
	vals := make([]float64, nPanels*order)
	workers := min(m.outerWorkers(), len(vals))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := newIntegrand()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(vals) {
					return
				}
				pi, ni := j/order, j%order
				vals[j] = f(numeric.GLPoint(panels[pi], panels[pi+1], ni, order))
			}
		}()
	}
	wg.Wait()
	var acc numeric.KahanSum
	for i := 0; i < nPanels; i++ {
		acc.Add(numeric.GaussLegendreSum(panels[i], panels[i+1], vals[i*order:(i+1)*order], order))
	}
	return acc.Sum()
}

// outerWorkers resolves the Workers field: 0 means GOMAXPROCS.
func (m Model) outerWorkers() int {
	if m.Workers > 0 {
		return m.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// misrankKernel is MisrankGaussian with the arguments in (smaller, larger)
// order, inlined for the hot loops.
func misrankKernel(small, large, p float64) float64 {
	return numeric.ErfcRatio(large-small, math.Sqrt(2*(1/p-1)*(small+large)))
}

// ErrTargetUnreachable is returned (wrapped) by the rate solvers when the
// metric is still above the target at the top of the search interval: no
// rate the caller allows is high enough. Match it with errors.Is.
var ErrTargetUnreachable = errors.New("core: target unreachable within the rate interval")

// The default search interval of RequiredRate. The ceiling stops short of
// p = 1, where the metrics are identically zero and their logarithm would
// flatten the root search.
const (
	rateFloor = 1e-6
	rateCeil  = 1 - 1e-9
)

// rateStep is the step in log p — a factor 4 in p — by which solveRate
// walks the upper end of its bracket down: large enough that a root three
// decades below the ceiling is bracketed in five probes, small enough that
// the one probe below the root stays within a factor 4 of it.
const rateStep = 2 * math.Ln2

// RequiredRate returns the minimum sampling rate at which the given metric
// (RankingMetric or DetectionMetric, selected by detection) stays at or
// below target — the paper's "minimum sampling rate for a desired
// accuracy" question, usually asked with target = 1.
//
// The search runs over [1e-6, 1−1e-9] from the top down: the ceiling is
// evaluated first (still above target there is ErrTargetUnreachable), then
// the upper end of the bracket is stepped down by factors of 4 until the
// metric first exceeds the target, and Brent's method polishes the root
// inside that last step to 1e-6 in the log-odds q = ln(1/p − 1), which
// bounds the error in ln p by (1 − p)·1e-6. The order is deliberate. The
// metric is non-increasing in p (TestMetricMonotoneInP), so the first
// crossing met on the way down is the only one; and one evaluation gets
// dearer as p falls, so a search that starts at the floor spends most of
// its time on probes far from the answer.
//
// The polish runs in q because that is where the metric is a straight
// line. Near p = 1 only flows within one sampling standard deviation of
// each other can swap, so the metric grows like (1/p − 1)^½: slope ½ in q
// (on the adapt-loop model below, 0.50–0.51 for the ranking metric and
// 0.50–0.72 for detection from p = 0.25 up), where in ln p it plunges to
// −∞ at p = 1. Below ~10 %, q ≈ −ln p and nothing
// changes. On the adapt-loop model the ranking solve is the ceiling,
// p = 0.25 and four probes within 0.4 % of the root at 0.9039: 6
// evaluations, where a polish in ln p takes 12, creeping up from 0.31 in
// bisection-sized steps.
//
// Measured on the benchmark's
// adapt-loop model (Pareto mean 12.38 β 1.64, N = 38 240, t = 10, hybrid
// kernel, one worker; ms and integrand probes per RankingMetric, before →
// after the inner integrals were taken over sizes, eval.go):
//
//	p = 0.9     15 ms    83 k  →   1.9 ms   12 k
//	p = 0.1    101 ms   710 k  →   3.4 ms   24 k
//	p = 0.01   2.2 s   17.4 M  →    43 ms  391 k
//	p = 0.001  4.7 s   34.8 M  →   153 ms  2.4 M
//	p = 3e-4   5.9 s   44.6 M  →   193 ms  3.2 M
//	p = 1e-4   7.9 s   50.1 M  →    33 ms  384 k
//	p = 1e-6   4.0 s   23.5 M  →    17 ms  187 k
//
// The hump is the hybrid kernel's whole-packet cells above a small flow:
// there are ~85/p of them, each summed exactly until, below p ≈ 3e-4, they
// are narrow enough to integrate (p = 5e-4 is the dearest rate now, 300 ms).
// The floor is evaluated only if the descent reaches it, and is returned
// when the metric meets the target even there.
func (m Model) RequiredRate(target float64, detection bool) (float64, error) {
	return m.RequiredRateIn(target, detection, rateFloor, rateCeil)
}

// RequiredRateIn is RequiredRate restricted to rates in [lo, hi] ⊆ (0, 1]:
// it returns lo when the metric already meets the target there, and
// ErrTargetUnreachable when it is still above the target at hi. A caller
// that would clamp RequiredRate's answer to [lo, hi] anyway (the adaptive
// controller) gets the clamped answer without paying for any probe outside
// the interval. hi is capped at RequiredRate's ceiling 1−1e-9.
func (m Model) RequiredRateIn(target float64, detection bool, lo, hi float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if target <= 0 {
		return 0, fmt.Errorf("core: target metric %g must be positive", target)
	}
	if !(0 < lo && lo <= hi && hi <= 1) {
		return 0, fmt.Errorf("core: rate interval [%g, %g] outside 0 < lo <= hi <= 1", lo, hi)
	}
	metric := m.RankingMetric
	if detection {
		metric = m.DetectionMetric
	}
	hi = math.Min(hi, rateCeil)
	return solveRate(metric, target, math.Min(lo, hi), hi)
}

// solveRate returns the smallest p in [pLo, pHi] with metric(p) <= target,
// for a metric non-increasing in p, searching from pHi downward in log p
// and polishing in log-odds as RequiredRate documents. Every abscissa is
// evaluated at most once: the values that found the bracket are handed to
// Brent with it.
func solveRate(metric func(p float64) float64, target, pLo, pHi float64) (float64, error) {
	f := func(p float64) float64 {
		return math.Log(metric(p)+1e-300) - math.Log(target)
	}
	lo, b := math.Log(pLo), math.Log(pHi)
	fb := f(math.Exp(b))
	if fb > 0 {
		return 0, fmt.Errorf("core: metric still above target %g at p=%g: %w", target, pHi, ErrTargetUnreachable)
	}
	for b > lo && !math.IsNaN(fb) {
		a := math.Max(lo, b-rateStep)
		fa := f(math.Exp(a))
		if fa > 0 {
			q, err := numeric.BrentBracket(func(q float64) float64 { return f(fromLogOdds(q)) },
				logOdds(math.Exp(a)), fa, logOdds(math.Exp(b)), fb, 1e-6)
			if err != nil {
				return 0, err
			}
			return fromLogOdds(q), nil
		}
		b, fb = a, fa
	}
	if math.IsNaN(fb) {
		// A NaN compares false both ways; without this it would read as
		// "target met" all the way down and return the floor.
		return 0, fmt.Errorf("core: metric is NaN at p=%g", math.Exp(b))
	}
	return pLo, nil
}

// logOdds is q = ln(1/p − 1), written so that 1 − p is exact near p = 1;
// fromLogOdds inverts it.
func logOdds(p float64) float64     { return math.Log((1 - p) / p) }
func fromLogOdds(q float64) float64 { return 1 / (1 + math.Exp(q)) }
