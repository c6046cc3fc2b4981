package netsample

import (
	"fmt"
	"math"
	"sort"

	"flowrank/internal/core"
)

// Allocation is one solution of the per-switch budgeted rate assignment.
type Allocation struct {
	// Name is the allocator that produced it.
	Name string
	// Coordinated reports the sampling discipline the rates were budgeted
	// for. False: every switch samples every packet it forwards (the
	// uncoordinated baseline), so its budget divides by its whole
	// traversing load. True: each switch samples only the flows whose
	// hash falls in its range (the cSamp discipline), so its budget
	// divides by the owned load only — the same budget buys a higher
	// rate.
	Coordinated bool
	// Rates assigns every switch its packet-sampling rate in (0, 1].
	Rates map[string]float64
	// Shares splits each path's hash space across the path's monitors:
	// Shares[pathKey][switch] is the fraction of the path's flows the
	// switch owns. Shares sum to 1 over each path's monitors. The owner
	// of a flow is the single monitor whose observation the collector
	// uses, so double-counting across monitors is structurally impossible.
	Shares map[string]map[string]float64
	// Predicted is the model-predicted network-wide ranking fraction
	// (swapped top-t pairs over countable pairs, lower is better) of this
	// allocation — the objective the Coordinated allocator maximizes
	// quality against.
	Predicted float64
}

// Allocator solves a Demand into an Allocation.
type Allocator interface {
	Name() string
	Allocate(d *Demand) (*Allocation, error)
}

// Compile-time interface checks.
var (
	_ Allocator = Uniform{}
	_ Allocator = GreedyWaterfill{}
	_ Allocator = Coordinated{}
)

// ensureView lazily builds and memoizes the demand's canonical view and
// scorer, keyed on a fingerprint of Paths/Links/TopT: mutating the
// demand rebuilds the memo on next use instead of silently serving a
// stale view.
func (d *Demand) ensureView() *demandView {
	fp := d.fingerprint()
	if d.view == nil || fp != d.viewFP {
		d.view = newDemandView(d)
		d.score = newScorer(d.view)
		d.viewFP = fp
	}
	return d.view
}

// demandView is a canonicalized read model of a Demand: paths sorted by
// key, links sorted by ID, offered loads precomputed. Every allocator
// works from the view, which is why allocation results do not depend on
// the caller's slice orders.
type demandView struct {
	d     *Demand
	paths []PathStat
	links []LinkState
	// offered is each switch's total traversing packets (the packets of
	// every path it monitors).
	offered map[string]float64
	// linkPaths maps a link ID to the indices (into paths) of the paths
	// crossing it; linkFlows is the link's total flow count from those
	// paths.
	linkPaths map[string][]int
	linkFlows map[string]float64
}

func newDemandView(d *Demand) *demandView {
	v := &demandView{
		d:         d,
		paths:     append([]PathStat(nil), d.Paths...),
		links:     append([]LinkState(nil), d.Links...),
		offered:   map[string]float64{},
		linkPaths: map[string][]int{},
		linkFlows: map[string]float64{},
	}
	sort.Slice(v.paths, func(i, j int) bool { return v.paths[i].Key() < v.paths[j].Key() })
	sort.Slice(v.links, func(i, j int) bool { return v.links[i].Link < v.links[j].Link })
	for pi, p := range v.paths {
		for _, sw := range Monitors(p.Switches) {
			v.offered[sw] += p.Packets
		}
		for h := 0; h+1 < len(p.Switches); h++ {
			id := Link{From: p.Switches[h], To: p.Switches[h+1]}.ID()
			v.linkPaths[id] = append(v.linkPaths[id], pi)
			v.linkFlows[id] += float64(p.Flows)
		}
	}
	return v
}

// owned accumulates each switch's owned packets under the given shares.
func (v *demandView) owned(shares map[string]map[string]float64) map[string]float64 {
	owned := make(map[string]float64, len(v.offered))
	for _, p := range v.paths {
		ps := shares[p.Key()]
		for _, sw := range Monitors(p.Switches) {
			owned[sw] += ps[sw] * p.Packets
		}
	}
	return owned
}

// budgetRates derives each switch's sampling rate from its budget and the
// load its sampler faces, clamped into (0, 1]. A switch facing no load
// gets rate 1: it can afford to keep everything it (never) sees.
func (v *demandView) budgetRates(load map[string]float64) map[string]float64 {
	rates := make(map[string]float64, len(v.d.Topo.Switches()))
	for _, sw := range v.d.Topo.Switches() {
		r := 1.0
		if l := load[sw.ID]; l > 0 {
			r = math.Min(1, sw.Budget/l)
		}
		rates[sw.ID] = r
	}
	return rates
}

// concentratedShares gives each path's whole hash space to the monitor
// pick(p) selects.
func (v *demandView) concentratedShares(pick func(p PathStat) string) map[string]map[string]float64 {
	shares := make(map[string]map[string]float64, len(v.paths))
	for _, p := range v.paths {
		ps := make(map[string]float64, len(Monitors(p.Switches)))
		for _, sw := range Monitors(p.Switches) {
			ps[sw] = 0
		}
		ps[pick(p)] = 1
		shares[p.Key()] = ps
	}
	return shares
}

// heaviestFirst returns the path indices by descending packets with the
// canonical key as tiebreak.
func (v *demandView) heaviestFirst() []int {
	order := make([]int, len(v.paths))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := v.paths[order[a]], v.paths[order[b]]
		if pa.Packets != pb.Packets {
			return pa.Packets > pb.Packets
		}
		return pa.Key() < pb.Key()
	})
	return order
}

// bestMonitor returns the path's monitor with the highest rate,
// tie-broken lexicographically — the observation point a collector would
// prefer.
func bestMonitor(p PathStat, rates map[string]float64) string {
	best := ""
	for _, sw := range Monitors(p.Switches) {
		if best == "" || rates[sw] > rates[best] || (rates[sw] == rates[best] && sw < best) {
			best = sw
		}
	}
	return best
}

// Uniform is the uncoordinated baseline: every switch samples every
// packet it forwards, so its budget forces rate B_v / offered(v). The
// collector still reads each flow at exactly one monitor — the highest-
// rate switch on its path — but the other monitors' duplicate samples
// have already spent their budgets, which is precisely the waste
// coordination removes.
type Uniform struct{}

// Name implements Allocator.
func (Uniform) Name() string { return "uniform" }

// Allocate implements Allocator.
func (Uniform) Allocate(d *Demand) (*Allocation, error) {
	v, s, err := viewAndScorer(d)
	if err != nil {
		return nil, err
	}
	rates := v.budgetRates(v.offered)
	shares := v.concentratedShares(func(p PathStat) string { return bestMonitor(p, rates) })
	a := &Allocation{Name: "uniform", Rates: rates, Shares: shares}
	a.Predicted = s.networkFrac(rates, shares)
	return a, nil
}

// GreedyWaterfill is the first coordinated step: paths are assigned whole
// to monitors, heaviest path first, each to the monitor that would retain
// the highest sampling rate after taking it. Budgets then divide by owned
// load only. It needs no model — it purely waterfills load — and sits
// between Uniform and Coordinated in predicted quality.
type GreedyWaterfill struct{}

// Name implements Allocator.
func (GreedyWaterfill) Name() string { return "waterfill" }

// Allocate implements Allocator.
func (GreedyWaterfill) Allocate(d *Demand) (*Allocation, error) {
	v, s, err := viewAndScorer(d)
	if err != nil {
		return nil, err
	}
	owned := map[string]float64{}
	owner := make(map[string]string, len(v.paths))
	for _, pi := range v.heaviestFirst() {
		p := v.paths[pi]
		best, bestRate := "", -1.0
		for _, sw := range Monitors(p.Switches) {
			b, ok := v.d.Topo.Switch(sw)
			if !ok {
				// A silent miss would waterfill against Budget 0 and
				// assign the monitor rate 0 — surface the inconsistent
				// demand instead.
				return nil, fmt.Errorf("netsample: path %s monitor %q not in topology", p.Key(), sw)
			}
			rate := math.Min(1, b.Budget/(owned[sw]+p.Packets))
			if rate > bestRate || (rate == bestRate && sw < best) {
				best, bestRate = sw, rate
			}
		}
		owner[p.Key()] = best
		owned[best] += p.Packets
	}
	shares := v.concentratedShares(func(p PathStat) string { return owner[p.Key()] })
	rates := v.budgetRates(v.owned(shares))
	a := &Allocation{Name: "waterfill", Coordinated: true, Rates: rates, Shares: shares}
	a.Predicted = s.networkFrac(rates, shares)
	return a, nil
}

// OfferedLoads returns each switch's offered load — the total packets of
// every path it monitors — from the demand's path aggregates. It is the
// denominator of the uncoordinated rate and the natural base for budget
// sweeps ("every switch may sample x% of what it forwards"). The map is
// the view's own memoized aggregate; callers must not mutate it.
func OfferedLoads(d *Demand) map[string]float64 {
	return d.ensureView().offered
}

// viewAndScorer canonicalizes the demand and validates what every
// allocator needs.
func viewAndScorer(d *Demand) (*demandView, *scorer, error) {
	if d == nil || d.Topo == nil {
		return nil, nil, fmt.Errorf("netsample: nil demand or topology")
	}
	if len(d.Paths) == 0 || len(d.Links) == 0 {
		return nil, nil, fmt.Errorf("netsample: empty demand (%d paths, %d links)", len(d.Paths), len(d.Links))
	}
	if d.TopT < 1 {
		return nil, nil, fmt.Errorf("netsample: demand top-t %d must be >= 1", d.TopT)
	}
	for _, p := range d.Paths {
		if len(Monitors(p.Switches)) == 0 {
			return nil, nil, fmt.Errorf("netsample: path %q has no monitor", p.Key())
		}
	}
	d.ensureView()
	return d.view, d.score, nil
}

// --- model-predicted quality -------------------------------------------

// rateGridPredict is the log-spaced rate axis the per-link quality curves
// are evaluated on; scores between grid points interpolate linearly in
// log rate.
var rateGridPredict = []float64{1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 0.6, 1}

// scorer predicts the network-wide ranking fraction of an allocation: the
// §5 swapped-pair metric of each link's fitted model at the link's
// effective sampling rate, summed over links and normalized by the total
// countable pairs. Gridpoint values are evaluated lazily and memoized per
// (link, gridpoint), so a search over many candidate allocations pays the
// model only for the rate neighborhoods it actually visits — and every
// allocator sharing the Demand shares the memo.
type scorer struct {
	v      *demandView
	models map[string]core.Model // link ID -> fitted model
	points map[string][]float64  // link ID -> metric at rateGridPredict (NaN = not yet evaluated)
	pairs  map[string]float64    // link ID -> countable pair total
}

func newScorer(v *demandView) *scorer {
	return &scorer{
		v:      v,
		models: map[string]core.Model{},
		points: map[string][]float64{},
		pairs:  map[string]float64{},
	}
}

// point returns the link's metric at gridpoint i, evaluating the model on
// first use.
func (s *scorer) point(ls LinkState, i int) float64 {
	c, ok := s.points[ls.Link]
	if !ok {
		c = s.installLink(ls)
	}
	if math.IsNaN(c[i]) {
		c[i] = s.models[ls.Link].RankingMetric(rateGridPredict[i])
	}
	return c[i]
}

// installLink fits the link's model to its estimated population and opens
// its curve slots.
func (s *scorer) installLink(ls LinkState) []float64 {
	link, m := ls.Link, core.FitModel(ls.Flows, ls.Dist, s.v.d.TopT, s.v.d.Workers)
	s.models[link] = m
	n, t := float64(m.N), float64(m.T)
	s.pairs[link] = (2*n - t - 1) * t / 2
	pts := make([]float64, len(rateGridPredict))
	for j := range pts {
		pts[j] = math.NaN()
	}
	s.points[link] = pts
	return pts
}

// metricAt interpolates a link's swapped-pair metric at rate p, linearly
// in log rate between the bracketing gridpoints.
func (s *scorer) metricAt(ls LinkState, p float64) float64 {
	grid := rateGridPredict
	if p <= grid[0] {
		return s.point(ls, 0)
	}
	if p >= grid[len(grid)-1] {
		return s.point(ls, len(grid)-1)
	}
	i := sort.SearchFloat64s(grid, p)
	lo, hi := grid[i-1], grid[i]
	w := (math.Log(p) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
	return s.point(ls, i-1)*(1-w) + s.point(ls, i)*w
}

// networkFrac scores an allocation: each link's effective rate is the
// flow-weighted mean of its flows' owner rates, and the score is the
// predicted swapped pairs over countable pairs across all links (lower
// is better). Links are visited in canonical order, so the float
// reduction is identical however the caller enumerated them.
func (s *scorer) networkFrac(rates map[string]float64, shares map[string]map[string]float64) float64 {
	var swapped, pairs float64
	for _, ls := range s.v.links {
		p := s.linkRate(ls.Link, rates, shares)
		swapped += s.metricAt(ls, p)
		pairs += s.pairs[ls.Link]
	}
	if pairs == 0 {
		return 0
	}
	return swapped / pairs
}

// linkRate is the flow-weighted mean sampling rate of the flows crossing
// a link: each path's flows are owned by the path's monitors in share
// proportion, each at its owner's rate.
func (s *scorer) linkRate(link string, rates map[string]float64, shares map[string]map[string]float64) float64 {
	totalFlows := s.v.linkFlows[link]
	if totalFlows == 0 {
		return 1
	}
	var acc float64
	for _, pi := range s.v.linkPaths[link] {
		p := s.v.paths[pi]
		ps := shares[p.Key()]
		var pathRate float64
		for _, sw := range Monitors(p.Switches) {
			pathRate += ps[sw] * rates[sw]
		}
		acc += float64(p.Flows) * pathRate
	}
	return acc / totalFlows
}
