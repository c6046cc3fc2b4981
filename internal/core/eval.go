package core

import (
	"math"
	"sort"
	"sync/atomic"

	"flowrank/internal/dist"
	"flowrank/internal/numeric"
)

// Size-space evaluation of the inner integrals.
//
// Both metrics are an outer integral over the size x of a top flow (taken in
// quantile space u = CCDF(x), model.go) of inner integrals over the size y
// of the other flow: the misranking kernel K against the law's mass, below x
// and — for ranking — above it. The kernel depends on y only through y, so
// the inner integral is ∫ K(y, x) dF(y): linear in the law, and a plain
// finite sum wherever K or F is a step. modelEval takes it apart that way
// instead of pointing one adaptive rule at "whatever the integrand happens
// to be" in the law's quantile space:
//
//   - Atoms are summed. The mass of a Discrete law (alone or inside a
//     Mixture) sits on points; each contributes kernel × mass.
//   - Integer cells are summed. KernelHybrid rounds both sizes to whole
//     packets while p·min(sizes) < hybridThreshold, so over that range the
//     integrand is constant on each cell [j−½, j+½) and the integral is
//     Σ_j K(j, round x)·[CCDF(j−½) − CCDF(j+½)], clipped to the range — the
//     value a quadrature of the step function converges to. Consecutive
//     cells come from the row forms of the exact kernel (pairwise.go), so a
//     cell costs a few dozen multiply-adds, not a binomial sum from scratch.
//   - Only the Gaussian remainder is integrated, each continuous leaf of the
//     law in its own logarithmic quantile space v = u_c·e^s, where it is
//     smooth: a Mixture is the weighted sum of its components' integrals,
//     and its inverse CCDF — kinked wherever two components cross — is
//     never evaluated inside an integral. The size along the ray comes from
//     dist.Ray, and numeric.Quad (Gauss–Kronrod, globally adaptive) is
//     seeded with the sizes where the erfc front ends.
//
// The detection weight P*t varies inside a cell; it is smooth there, and a
// fixed 4-point Gauss rule per unit of its own scale λ integrates it
// (jointWeight.mass).
//
// # Error budget
//
// Every term of both metrics is non-negative: a relative error ε on each
// inner integral is at most ε on the metric. Nothing downstream can use more
// than ~5e-7 — golden tables and reports print six significant digits,
// solveRate stops at 1e-6 in the log-odds ln(1/p − 1) (at most 1e-6 in
// log p), where the metrics' log slope is of order one, the Monte-Carlo
// validation tests carry percent-level noise, and a Mixture's outer size x
// is itself only good to dist's bisection width (1e-12 in x off a CCDF
// jump). The constants below spend 1.2e-7 of it between them, and there is
// no absolute tolerance: an absolute 1e-13 left the detection metric 4e-4 off
// at N = 7·10⁵ (it differed from the ranking metric by that much at t = 1,
// where the two are the same problem) and resolved digits nobody reads at
// N = 500.
const (
	// quadTol is the relative tolerance of every integral handed to the
	// quadrature. Its error estimate is pessimistic on a seeded erfc front:
	// on the adapt-loop model the metric at 1e-7 equals the metric at 1e-12
	// to all twelve printed digits.
	quadTol = 1e-7
	// stopTol ends a run of step terms walking away from x once the kernel
	// times all the mass still ahead is below stopTol of the sum so far (the
	// kernel only falls with distance, so that product bounds the rest).
	stopTol = 1e-9
	// cellTol is when the integer cells above x are too narrow to be worth
	// summing: replacing a cell by the continued kernel (aboveRow.continued)
	// costs at most p·(|Δ ln mass| + p)/12 of it — the kernel moves by at
	// most a factor 1−p per packet — and once that is below cellTol the rest
	// of the range is integrated instead. Only rates below ~3e-4 ever get
	// there; without it the cell count grows like 85/p.
	cellTol = 1e-8
	// jointPanel is the width, in units of λ = (N−2)·Pji, of one 4-point
	// Gauss panel over the detection weight, which varies on a scale of at
	// least one in λ.
	jointPanel = 1.0
)

// modelEval is the per-evaluation engine behind Model.RankingMetric and
// Model.DetectionMetric: one metric computation at one sampling rate. It
// owns the state that makes a single evaluation fast but must not leak
// between evaluations: the law taken apart, the row and quadrature scratch,
// and the table of half-integer tails.
//
// A modelEval is confined to the goroutine that created it; Model stays
// immutable and safe for concurrent use because every metric call builds
// its own evaluation. Every value it returns is a pure function of (u, x),
// which is what keeps the metric bit-identical for any worker count.
type modelEval struct {
	m Model
	p float64

	parts dist.Parts
	// atomTail[i] is the whole law's CCDF at parts.Atoms[i].Value.
	atomTail []float64
	// ymin is the smallest size of the continuous mass.
	ymin float64

	quad   numeric.Quad
	rowUp  aboveRow
	rowLow belowRow
	// half[j] is contTail(j+½), see tailHalf.
	half   []float64
	probes int64
}

// probeCounter, when a test or benchmark sets it, receives the number of
// integrand probes — smooth-integrand evaluations plus step terms — of
// every evaluation: the unit a regression in the integrator shows up in,
// and one that repeats exactly. Production code leaves it nil.
var probeCounter *atomic.Int64

func (m Model) newEval(p float64) *modelEval {
	e := &modelEval{m: m, p: p, parts: dist.Decompose(m.Dist), ymin: math.Inf(1)}
	for _, leaf := range e.parts.Smooth {
		e.ymin = math.Min(e.ymin, leaf.Dist.QuantileCCDF(1))
	}
	e.atomTail = make([]float64, len(e.parts.Atoms))
	heavier := 0.0 // mass of the atoms above the current one
	for i := len(e.parts.Atoms) - 1; i >= 0; i-- {
		e.atomTail[i] = heavier + e.contTail(e.parts.Atoms[i].Value)
		heavier += e.parts.Atoms[i].Mass
	}
	return e
}

// flushProbes hands the probes counted since the last call to the test hook.
func (e *modelEval) flushProbes() {
	if probeCounter != nil {
		probeCounter.Add(e.probes)
	}
	e.probes = 0
}

// kernel returns the misranking probability for continuous sizes
// small <= large under the model's kernel selection.
func (e *modelEval) kernel(small, large float64) float64 {
	if e.m.Kernel == KernelHybrid && e.p*small < hybridThreshold {
		return MisrankExact(roundSize(small), roundSize(large), e.p)
	}
	return misrankKernel(small, large, e.p)
}

// roundSize is the whole-packet size the hybrid kernel takes a continuous
// size for.
func roundSize(y float64) int {
	if s := int(math.Round(y)); s > 1 {
		return s
	}
	return 1
}

// below returns ∫ W·K(y, x) dF(y) over the flows smaller than the top
// candidate x = Q(u) — in quantile terms ∫_u^1 W(v)·K(Q(v), x) dv — where
// the weight W is 1 for the ranking metric (jw == nil) and the boundary
// weight P*t(v, u) for the detection metric.
func (e *modelEval) below(u, x float64, jw *jointWeight) float64 {
	if math.IsNaN(x) {
		return x // a broken quantile poisons the metric, it does not round away
	}
	if u >= 1 {
		return 0
	}
	total := e.atomsBelow(u, x, jw)
	if len(e.parts.Smooth) == 0 {
		return total
	}
	yCut := 0.0 // sizes below yCut meet the exact kernel
	if e.m.Kernel == KernelHybrid {
		yCut = hybridThreshold / e.p
		total += e.cellsBelow(x, math.Min(x, yCut), jw)
	}
	if x > yCut {
		for _, leaf := range e.parts.Smooth {
			total += leaf.Weight * e.smoothBelow(leaf.Dist, x, yCut, jw)
		}
	}
	return total
}

// above returns ∫ K(x, y) dF(y) over the flows larger than x (the ranking
// metric's second term), truncated at the size beyond which the kernel is
// below ~1e-18: larger flows are essentially never outranked by x.
func (e *modelEval) above(u, x float64) float64 {
	if math.IsNaN(x) {
		return x
	}
	// Solve (y-x)/sqrt(2(1/p-1)(x+y)) = z* for y = x + Δ:
	// Δ² = 2 z*² (1/p-1) (2x + Δ).
	const zstar = 6.5 // erfc(6.5) ≈ 3e-20
	c2 := 2 * zstar * zstar * (1/e.p - 1)
	yEnd := x + (c2+math.Sqrt(c2*c2+8*c2*x))/2
	total := e.atomsAbove(u, x, yEnd)
	if len(e.parts.Smooth) == 0 {
		return total
	}
	if e.m.Kernel == KernelHybrid && e.p*x < hybridThreshold {
		return total + e.cellsAbove(x, yEnd)
	}
	for _, leaf := range e.parts.Smooth {
		total += leaf.Weight * e.smoothAbove(leaf.Dist, x, yEnd)
	}
	return total
}

// span is the weight of the tail-probability interval [va, vb].
func span(va, vb float64, jw *jointWeight) float64 {
	if jw == nil {
		return vb - va
	}
	return jw.mass(va, vb)
}

// atomsBelow sums the atoms smaller than x, largest first, and the share
// of an atom at x itself that ranks below u.
func (e *modelEval) atomsBelow(u, x float64, jw *jointWeight) float64 {
	atoms := e.parts.Atoms
	k := sort.Search(len(atoms), func(i int) bool { return atoms[i].Value >= x })
	var total float64
	if k < len(atoms) && atoms[k].Value == x {
		if share := math.Min(e.atomTail[k]+atoms[k].Mass-u, atoms[k].Mass); share > 0 {
			total = e.kernel(x, x) * span(u, u+share, jw)
			e.probes++
		}
	}
	for i := k - 1; i >= 0; i-- {
		kern, tail := e.kernel(atoms[i].Value, x), e.atomTail[i]
		total += kern * span(tail, tail+atoms[i].Mass, jw)
		e.probes++
		if kern*(1-tail) <= stopTol*total {
			break
		}
	}
	return total
}

// atomsAbove sums the atoms in (x, yEnd], smallest first, and the share of
// an atom at x itself that ranks above u.
func (e *modelEval) atomsAbove(u, x, yEnd float64) float64 {
	atoms := e.parts.Atoms
	k := sort.Search(len(atoms), func(i int) bool { return atoms[i].Value >= x })
	var total float64
	if k < len(atoms) && atoms[k].Value == x {
		if share := math.Min(u-e.atomTail[k], atoms[k].Mass); share > 0 {
			total = e.kernel(x, x) * share
			e.probes++
		}
		k++
	}
	for ; k < len(atoms) && atoms[k].Value <= yEnd; k++ {
		kern := e.kernel(x, atoms[k].Value)
		total += kern * atoms[k].Mass
		e.probes++
		if kern*e.atomTail[k] <= stopTol*total {
			break
		}
	}
	return total
}

// contTail is the CCDF of the continuous mass alone.
func (e *modelEval) contTail(y float64) float64 {
	var s float64
	for _, leaf := range e.parts.Smooth {
		s += leaf.Weight * leaf.Dist.CCDF(y)
	}
	return s
}

// maxHalfTable bounds the table of half-integer tails (8 MB at the bound);
// cells beyond it ask the law directly.
const maxHalfTable = 1 << 20

// tailHalf is contTail(j+½), the shared edge of cells j and j+1. Every outer
// node walks cells over much the same sizes, so the edges are tabulated once
// per evaluation, as a prefix grown on demand.
func (e *modelEval) tailHalf(j int) float64 {
	if j >= maxHalfTable {
		return e.contTail(float64(j) + 0.5)
	}
	for len(e.half) <= j {
		e.half = append(e.half, e.contTail(float64(len(e.half))+0.5))
	}
	return e.half[j]
}

// mixedWeight is the detection weight of the continuous mass with sizes in
// [a, b) when the law also has atoms: sizes map to tail probabilities of
// the whole law, and the atoms inside the range interrupt the interval.
func (e *modelEval) mixedWeight(a, b float64, jw *jointWeight) float64 {
	atoms := e.parts.Atoms
	i := sort.Search(len(atoms), func(i int) bool { return atoms[i].Value > a })
	var w float64
	for a < b {
		next := b
		if i < len(atoms) && atoms[i].Value < b {
			next = atoms[i].Value
			i++
		}
		w += jw.mass(e.m.Dist.CCDF(math.Nextafter(next, math.Inf(-1))), e.m.Dist.CCDF(a))
		a = next
	}
	return w
}

// cellsBelow sums the integer cells of the continuous mass with sizes in
// [ymin, yTop), yTop <= x, against a top flow of round(x) packets.
func (e *modelEval) cellsBelow(x, yTop float64, jw *jointWeight) float64 {
	big, last := roundSize(x), roundSize(yTop)
	e.rowLow.start(big, e.p, min(last, big-1))
	mixed := jw != nil && len(e.parts.Atoms) > 0
	var total float64
	// Sizes under half a packet count as one packet too: the first cell
	// starts at the smallest size whatever its index.
	a, tailA := e.ymin, e.contTail(e.ymin)
	for j := 1; j <= last; j++ {
		kern := 0.0
		if j < big {
			kern = e.rowLow.next()
		} else {
			kern = misrankEqual(big, e.p)
		}
		b := float64(j) + 0.5
		if b <= a {
			continue
		}
		tailB := 0.0
		if b < yTop {
			tailB = e.tailHalf(j)
		} else {
			b, tailB = yTop, e.contTail(yTop)
		}
		if b > a {
			switch {
			case jw == nil:
				total += kern * (tailA - tailB)
			case !mixed:
				total += kern * jw.mass(tailB, tailA)
			default:
				total += kern * e.mixedWeight(a, b, jw)
			}
			e.probes++
		}
		a, tailA = b, tailB
	}
	return total
}

// cellsAbove sums the integer cells of the continuous mass with sizes in
// [x, yEnd) against the top candidate of round(x) packets, walking up until
// what is left cannot matter (stopTol) or the cells are narrow enough to
// integrate the continued kernel over the rest (cellTol).
func (e *modelEval) cellsAbove(x, yEnd float64) float64 {
	small := roundSize(x)
	e.rowUp.start(small, e.p)
	narrow := 12*cellTol/e.p - e.p // the |Δ ln mass| a narrow cell stays under
	var total, prev float64
	tailA := e.contTail(x)
	for j := small; ; j++ {
		b, tailB := float64(j)+0.5, 0.0
		if b < yEnd {
			tailB = e.tailHalf(j)
		} else {
			b, tailB = yEnd, e.contTail(yEnd)
		}
		kern := 0.0
		if j > small {
			kern = e.rowUp.next()
		} else {
			kern = misrankEqual(small, e.p)
		}
		w := tailA - tailB
		total += kern * w
		e.probes++
		if b >= yEnd || tailB <= 0 || kern*tailB <= stopTol*total {
			return total
		}
		if j > small+1 && math.Abs(prev-w) <= narrow*w {
			return total + e.continuedAbove(b, yEnd)
		}
		prev, tailA = w, tailB
	}
}

// continuedAbove integrates the continued exact kernel of the row cellsAbove
// started over the continuous mass with sizes in [yFrom, yEnd).
func (e *modelEval) continuedAbove(yFrom, yEnd float64) float64 {
	var total float64
	for _, leaf := range e.parts.Smooth {
		uc := leaf.Dist.CCDF(yFrom)
		vEnd := math.Max(leaf.Dist.CCDF(yEnd), uc*1e-30)
		if !(0 < vEnd && vEnd < uc) {
			continue // no mass up there (or none a float64 can tell from none)
		}
		ray := dist.Ray(leaf.Dist, uc)
		f := func(s float64) float64 {
			e.probes++
			return uc * math.Exp(-s) * e.rowUp.continued(ray(-s))
		}
		// The kernel falls by e per 1/p packets: seed the front.
		front := math.Log(uc / math.Max(leaf.Dist.CCDF(yFrom+4/e.p), vEnd))
		total += leaf.Weight * e.quad.Integrate(f, quadTol, 0, front, math.Log(uc/vEnd))
	}
	return total
}

// gaussReach returns how far from x, toward smaller sizes (dir < 0) or
// larger ones (dir > 0), the Gaussian kernel's argument reaches z:
// |x−y| = z·sqrt(2(1/p−1)(x+y)) solved for |x−y|.
func (e *modelEval) gaussReach(x, z, dir float64) float64 {
	c := z * z * (1/e.p - 1)
	return dir*c + math.Sqrt(c*c+4*c*x)
}

// The Gaussian kernel's erfc front is seeded at these arguments: the bulk
// of the integral lies inside the first, the second is where it has fallen
// to ~1e-14 of its peak.
const (
	frontZ = 2.5
	farZ   = 5.5
)

// smoothBelow integrates the Gaussian kernel (times the detection weight,
// if any) over the mass of the continuous leaf d with sizes in [yCut, x].
func (e *modelEval) smoothBelow(d dist.SizeDist, x, yCut float64, jw *jointWeight) float64 {
	uc := d.CCDF(x)
	vTop := 1.0
	if yCut > 0 {
		vTop = d.CCDF(yCut)
	}
	// A leaf that ends below x starts its ray at a negligible probability.
	uc = math.Max(uc, vTop*1e-30)
	if !(uc < vTop) {
		return 0
	}
	sMax := math.Log(vTop / uc)
	ray := dist.Ray(d, uc)
	ownTail := len(e.parts.Smooth) == 1 && len(e.parts.Atoms) == 0
	f := func(s float64) float64 {
		e.probes++
		v := uc * math.Exp(s)
		y := ray(s)
		kern := misrankKernel(y, x, e.p)
		if jw == nil || kern == 0 {
			return v * kern
		}
		tail := v
		if !ownTail {
			tail = e.m.Dist.CCDF(y)
		}
		return v * kern * jw.at(tail)
	}
	at := func(z float64) float64 {
		return math.Min(sMax, math.Max(0, math.Log(d.CCDF(x-e.gaussReach(x, z, -1))/uc)))
	}
	seeds := []float64{0, at(frontZ), at(farZ), sMax}
	if jw != nil && ownTail {
		// The detection weight rises from v = u to its plateau: one more
		// seed where it gets there, in order with the kernel's two.
		seeds = append(seeds, math.Min(sMax, math.Log(math.Max(1, jw.plateau()/uc))))
		sort.Float64s(seeds)
	}
	return e.quad.Integrate(f, quadTol, seeds...)
}

// smoothAbove integrates the Gaussian kernel over the mass of the
// continuous leaf d with sizes in [x, yEnd].
func (e *modelEval) smoothAbove(d dist.SizeDist, x, yEnd float64) float64 {
	uc := d.CCDF(x)
	vEnd := math.Max(d.CCDF(yEnd), uc*1e-30)
	if !(0 < vEnd && vEnd < uc) {
		return 0 // no mass up there (or none a float64 can tell from none)
	}
	sMax := math.Log(uc / vEnd)
	ray := dist.Ray(d, uc)
	f := func(s float64) float64 {
		e.probes++
		return uc * math.Exp(-s) * misrankKernel(x, ray(-s), e.p)
	}
	at := func(z float64) float64 {
		return math.Min(sMax, math.Max(0, math.Log(uc/d.CCDF(x+e.gaussReach(x, z, 1)))))
	}
	return e.quad.Integrate(f, quadTol, 0, at(frontZ), at(farZ), sMax)
}

// jointWeight is the detection metric's boundary weight at one outer node:
// P*t(v, u), the probability that the top candidate at tail probability u
// is in the top-t list while a flow at v > u is not.
type jointWeight struct {
	m      Model
	pmfBig []float64
	u      float64
	atFn   numeric.Func1 // at, bound once: mass calls it per panel
}

func newJointWeight(m Model) *jointWeight {
	w := &jointWeight{m: m, pmfBig: make([]float64, 0, m.T)}
	w.atFn = w.at
	return w
}

func (w *jointWeight) at(v float64) float64 {
	return jointTopProb(w.pmfBig, v, w.u, w.m.T, w.m.N)
}

// perV is λ per unit of tail probability above u: the weight depends on v
// through λ = (N−2)·(v−u)/(1−u) and varies on a scale of at least one in λ.
func (w *jointWeight) perV() float64 { return float64(w.m.N-2) / (1 - w.u) }

// plateau is the tail probability beyond which the weight has stopped
// rising (to ~1e-16): λ past lambdaMax.
func (w *jointWeight) plateau() float64 { return w.u + lambdaMax(w.m.T)/w.perV() }

// mass returns ∫_va^vb P*t(v, u) dv: one midpoint on the plateau, 4-point
// Gauss panels of at most jointPanel in λ below it.
func (w *jointWeight) mass(va, vb float64) float64 {
	if !(vb > va) {
		return 0
	}
	var total float64
	if top := w.plateau(); vb > top {
		lo := math.Max(va, top)
		total = (vb - lo) * w.at(0.5*(lo+vb))
		vb = lo
	}
	if vb > va {
		n := math.Ceil((vb - va) * w.perV() / jointPanel)
		h := (vb - va) / n
		for i := 0.0; i < n; i++ {
			total += numeric.GaussLegendre(w.atFn, va+i*h, va+(i+1)*h, 4)
		}
	}
	return total
}
